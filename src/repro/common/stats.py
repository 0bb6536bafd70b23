"""Hierarchical statistics registry.

Every component of the simulator records counts into a shared
:class:`StatsRegistry` under dotted names (``"l1x.hits"``,
``"link.l0x_l1x.msg_bytes"``).  The registry supports scoped views,
snapshots, diffs and merging — the experiment layer uses diffs to separate
per-function from whole-run statistics.

Hot-path contract: :meth:`StatsRegistry.counter` (and
:meth:`StatsScope.counter`) return a *bound handle* — a callable closed
over the fully-qualified counter name and the live counter map — so
per-access code paths (ACC/MESI controllers, :class:`repro.accel.core.
AxcCore`, the links) resolve dotted names once at construction instead
of re-formatting ``"{prefix}.{name}"`` on every increment.  A handle
created before :meth:`clear` stays valid afterwards (the counter map is
cleared in place, never replaced).

:meth:`StatsRegistry.flusher` extends the contract to whole *events*:
a flusher binds the full list of ``(name, amount)`` increments one
logical event performs (a cache hit: access count, energy, hit count,
link message counters) and applies all of them in a single call,
bit-identically to the unbundled :meth:`add` sequence.
"""

from collections import defaultdict


class StatsRegistry:
    """A flat map of dotted counter names to numeric values."""

    def __init__(self):
        self._counters = defaultdict(float)

    def add(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] += amount

    def counter(self, name):
        """Return a bound increment handle for counter ``name``.

        The handle is ``handle(amount=1)``; calling it is equivalent to
        :meth:`add` with the name pre-resolved.  Creating a handle does
        *not* materialise the counter — it first appears (as with
        :meth:`add`) on the first increment.
        """
        counters = self._counters

        def handle(amount=1):
            counters[name] += amount

        handle.counter_name = name
        return handle

    def flusher(self, pairs):
        """Return a bulk handle applying ``pairs`` of ``(name, amount)``.

        Calling the handle is bit-identical to one :meth:`add` per pair
        in order.  Repeated names are honoured: non-energy amounts to
        the same counter are pre-summed (exact — the simulator only
        feeds dyadic amounts to non-``_pj`` counters), while amounts to
        ``*_pj`` energy counters are applied one by one in their
        original order so float rounding matches the sequential path.
        """
        counters = self._counters
        collapsed = {}
        energy = []             # (name, amount) in per-event order
        for name, amount in pairs:
            if name.endswith("_pj"):
                energy.append((name, amount))
            else:
                collapsed[name] = collapsed.get(name, 0) + amount
        items = list(collapsed.items()) + energy

        def flush():
            for name, amount in items:
                counters[name] += amount

        return flush

    @property
    def registry(self):
        """The backing registry (self; mirrors :attr:`StatsScope.registry`
        so code holding either a registry or a scope can reach the root)."""
        return self

    def qualified(self, name):
        """Return the fully-qualified counter name (identity here)."""
        return name

    def get(self, name, default=0):
        """Return the value of counter ``name`` (``default`` if absent)."""
        return self._counters.get(name, default)

    def set(self, name, value):
        """Set counter ``name`` to ``value`` (used for gauges)."""
        self._counters[name] = value

    def scope(self, prefix):
        """Return a :class:`StatsScope` that prefixes all counter names."""
        return StatsScope(self, prefix)

    def names(self):
        """Return all counter names, sorted."""
        return sorted(self._counters)

    def snapshot(self):
        """Return a plain-dict copy of all counters."""
        return dict(self._counters)

    def diff(self, earlier_snapshot):
        """Return counters minus an earlier :meth:`snapshot`.

        Counters absent from the earlier snapshot are treated as zero.
        """
        result = {}
        for name, value in self._counters.items():
            delta = value - earlier_snapshot.get(name, 0)
            if delta:
                result[name] = delta
        return result

    def merge(self, other):
        """Add every counter of ``other`` (registry or dict) into this one."""
        items = other.snapshot().items() if isinstance(
            other, StatsRegistry) else other.items()
        for name, value in items:
            self._counters[name] += value

    def total(self, prefix):
        """Sum of the ``prefix`` counter itself plus every counter under
        ``prefix.``.

        The exact-name counter is counted exactly once, and sibling
        prefixes never match: ``total("l1x")`` sums ``"l1x"`` and
        ``"l1x.hits"`` but not ``"l1x_other.x"`` (the dot boundary is
        required) — see the regression tests in ``tests/test_stats.py``.
        """
        exact = prefix.rstrip(".")
        prefix_dot = exact + "."
        total = 0
        for name, value in self._counters.items():
            if name == exact or name.startswith(prefix_dot):
                total += value
        return total

    def subtree(self, prefix):
        """Return a dict of counters under ``prefix`` with it stripped."""
        prefix_dot = prefix if prefix.endswith(".") else prefix + "."
        return {name[len(prefix_dot):]: value
                for name, value in self._counters.items()
                if name.startswith(prefix_dot)}

    def clear(self):
        # In-place clear: bound counter handles keep referencing the
        # live map and stay valid.
        self._counters.clear()

    def __contains__(self, name):
        return name in self._counters

    def __repr__(self):
        return "StatsRegistry({} counters)".format(len(self._counters))


class StatsScope:
    """A view of a :class:`StatsRegistry` under a fixed name prefix.

    Qualified names are cached per scope, so repeat :meth:`add` calls on
    the same counter skip the string formatting entirely.
    """

    def __init__(self, registry, prefix):
        self._registry = registry
        self._prefix = prefix.rstrip(".")
        self._qualified = {}

    def _qualify(self, name):
        qualified = self._qualified.get(name)
        if qualified is None:
            qualified = self._prefix + "." + name
            self._qualified[name] = qualified
        return qualified

    def counter(self, name):
        """Return a bound increment handle for the scoped counter."""
        return self._registry.counter(self._qualify(name))

    def add(self, name, amount=1):
        qualified = self._qualified.get(name)
        if qualified is None:
            qualified = self._prefix + "." + name
            self._qualified[name] = qualified
        self._registry.add(qualified, amount)

    def get(self, name, default=0):
        return self._registry.get(self._qualify(name), default)

    def set(self, name, value):
        self._registry.set(self._qualify(name), value)

    def scope(self, prefix):
        return StatsScope(self._registry, self._qualify(prefix))

    def flusher(self, pairs):
        """Bulk handle over scope-relative ``(name, amount)`` pairs."""
        return self._registry.flusher(
            [(self._qualify(name), amount) for name, amount in pairs])

    @property
    def registry(self):
        """The root :class:`StatsRegistry` this scope writes into."""
        return self._registry

    def qualified(self, name):
        """Return the fully-qualified (prefixed) counter name."""
        return self._qualify(name)

    @property
    def prefix(self):
        return self._prefix
