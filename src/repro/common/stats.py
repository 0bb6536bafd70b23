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
logical event performs and applies all of them — ``count`` repetitions
at a time — in a single call.  Flushed results are bit-identical to
``count`` sequential per-event calls: amounts that are exact in binary
floating point (integers, and the half-cycle latencies the simulator
uses) are collapsed to one ``+= amount * count`` add, while energy
accumulations (``*_pj`` counters, whose per-event amounts are not
dyadic) are replayed term by term so the rounding sequence matches the
per-event path exactly.
"""

from collections import defaultdict


def compile_event_sequence(events):
    """Compile a program-ordered event sequence into a flush *program*.

    ``events`` is a list of ``(pairs, repeat)``; the result is a
    registry-independent ``(collapsed_items, replay_items)`` pair that
    :meth:`StatsRegistry.sequence_flusher` binds to live counters.
    Splitting compilation from binding lets callers cache the program on
    long-lived objects (the phase engine caches one per compiled phase)
    while every simulation run binds it to its own registry for free.

    Identical ``pairs`` objects recurring across events — the common
    case: a phase's event runs alternate between one load pair-list and
    one store pair-list — are decomposed once and reused.
    """
    collapsed = {}
    replay_blocks = {}          # name -> [(amounts tuple, repeat), ...]
    replay_order = []
    decomposed = {}             # id(pairs) -> (exact items, pj items)
    for pairs, repeat in events:
        decomp = decomposed.get(id(pairs))
        if decomp is None:
            exact = {}
            per_event = {}
            for name, amount in pairs:
                if name.endswith("_pj"):
                    amounts = per_event.get(name)
                    if amounts is None:
                        per_event[name] = [amount]
                    else:
                        amounts.append(amount)
                else:
                    exact[name] = exact.get(name, 0) + amount
            decomp = (list(exact.items()),
                      [(name, tuple(amounts))
                       for name, amounts in per_event.items()])
            decomposed[id(pairs)] = decomp
        exact_items, pj_items = decomp
        for name, amount in exact_items:
            collapsed[name] = collapsed.get(name, 0) + amount * repeat
        for name, amounts in pj_items:
            blocks = replay_blocks.get(name)
            if blocks is None:
                replay_blocks[name] = blocks = []
                replay_order.append(name)
            blocks.append((amounts, repeat))
    return (tuple(collapsed.items()),
            tuple((name, tuple(replay_blocks[name]))
                  for name in replay_order))


def compile_phase_ledger(load_pairs, store_pairs, num_loads, num_stores):
    """Compile a two-event-kind phase ledger into a flush program.

    The phase engine's specialisation of :func:`compile_event_sequence`:
    a phase's counter delta is fully determined by its load pair-list
    (repeated ``num_loads`` times), its store pair-list (``num_stores``
    times) and the program-ordered ``(is_store, count)`` event runs.
    Exact (non-``_pj``) amounts collapse to ``amount * occurrences``;
    energy names keep their per-event amounts per kind, and the flush
    walks the event sequence so same-counter float rounding follows
    program order exactly.  Compilation is O(pairs) — no walk over the
    event sequence at all.

    Returns ``(collapsed_items, pj_items)`` with ``pj_items`` entries of
    ``(name, load_amounts, store_amounts)``; registry-independent, so
    callers cache it on long-lived objects.
    """
    collapsed = {}
    pj = {}
    order = []
    sides = []
    if num_loads:
        sides.append((load_pairs, 0, num_loads))
    if num_stores:
        sides.append((store_pairs, 1, num_stores))
    for pairs, side, occurrences in sides:
        for name, amount in pairs:
            if name.endswith("_pj"):
                record = pj.get(name)
                if record is None:
                    pj[name] = record = [[], []]
                    order.append(name)
                record[side].append(amount)
            else:
                collapsed[name] = collapsed.get(name,
                                                0) + amount * occurrences
    return (tuple(collapsed.items()),
            tuple((name, tuple(pj[name][0]), tuple(pj[name][1]))
                  for name in order))


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

        The handle is ``flush(count=1)``; calling it is bit-identical to
        repeating, ``count`` times, one :meth:`add` per pair in order.
        Repeated names are honoured: non-energy amounts to the same
        counter are pre-summed (exact — the simulator only feeds dyadic
        amounts to non-``_pj`` counters), while amounts to ``*_pj``
        energy counters are replayed in the original per-event order so
        float rounding matches the sequential path exactly.
        """
        counters = self._counters
        collapsed = {}
        replayed = []           # (name, [amounts in per-event order])
        replay_index = {}
        for name, amount in pairs:
            if name.endswith("_pj"):
                index = replay_index.get(name)
                if index is None:
                    replay_index[name] = len(replayed)
                    replayed.append((name, [amount]))
                else:
                    replayed[index][1].append(amount)
            else:
                collapsed[name] = collapsed.get(name, 0) + amount
        collapsed_items = list(collapsed.items())
        # Pre-flattened single-event list: the count == 1 case is by far
        # the most frequent (every per-op hit), so it pays one loop over
        # a prebuilt list instead of the two-level iteration.
        single_items = collapsed_items + [
            (name, amount) for name, amounts in replayed
            for amount in amounts]

        def flush(count=1):
            if count == 1:
                for name, amount in single_items:
                    counters[name] += amount
                return
            for name, amount in collapsed_items:
                counters[name] += amount * count
            for name, amounts in replayed:
                value = counters[name]
                if len(amounts) == 1:
                    amount = amounts[0]
                    for _ in range(count):
                        value += amount
                else:
                    for _ in range(count):
                        for amount in amounts:
                            value += amount
                counters[name] = value

        flush.pairs = list(pairs)
        return flush

    def sequence_flusher(self, events, program=None):
        """Return a bulk handle replaying a program-ordered event *sequence*.

        ``events`` is a list of ``(pairs, repeat)``: the ``(name,
        amount)`` increments of one event type, repeated ``repeat``
        times before the next event type follows.  Calling the returned
        ``flush()`` is bit-identical to walking the sequence and calling
        :meth:`flusher`\\ (pairs)() once per repetition, in order: exact
        (non-``_pj``) amounts are pre-summed across the whole sequence,
        while every ``*_pj`` energy counter replays its amounts in the
        original per-event order — same-counter float rounding is the
        only ordering that matters, and it is preserved term by term.

        ``program`` (optional) is a precompiled
        :func:`compile_event_sequence` result for ``events`` — callers
        that cache programs on long-lived objects pass it to make the
        handle construction O(1).

        This is the steady-state phase engine's ledger primitive: one
        compiled phase charges its whole counter delta through a single
        prebuilt handle (``docs/simulator.md`` §10).
        """
        counters = self._counters
        if program is None:
            program = compile_event_sequence(events)
        collapsed_items, replay_items = program

        def flush():
            for name, amount in collapsed_items:
                counters[name] += amount
            for name, blocks in replay_items:
                value = counters[name]
                for amounts, repeat in blocks:
                    if len(amounts) == 1:
                        amount = amounts[0]
                        for _ in range(repeat):
                            value += amount
                    else:
                        for _ in range(repeat):
                            for amount in amounts:
                                value += amount
                counters[name] = value

        flush.events = events
        flush.program = program
        return flush

    def phase_flusher(self, event_seq, program):
        """Bind a :func:`compile_phase_ledger` program to this registry.

        ``event_seq`` is the phase's program-ordered ``(is_store,
        count)`` runs; calling the returned ``flush()`` is bit-identical
        to replaying the per-op flushers over the sequence (exact
        amounts pre-summed, ``*_pj`` rounding replayed in program
        order).  Binding is O(1) — the phase engine compiles the
        program once per phase and rebinds it in every simulation run.
        """
        counters = self._counters
        collapsed_items, pj_items = program

        def flush():
            for name, amount in collapsed_items:
                counters[name] += amount
            for name, load_amounts, store_amounts in pj_items:
                value = counters[name]
                for is_store, count in event_seq:
                    amounts = store_amounts if is_store else load_amounts
                    if not amounts:
                        continue
                    if len(amounts) == 1:
                        amount = amounts[0]
                        for _ in range(count):
                            value += amount
                    else:
                        for _ in range(count):
                            for amount in amounts:
                                value += amount
                counters[name] = value

        flush.program = program
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
