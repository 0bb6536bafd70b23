"""Per-invocation coherence strategies.

The paper's four evaluated designs differ only in how act 2 of the run
script (the accelerated region) touches memory: oracle-DMA scratchpads
(SCRATCH), one MESI-participating shared cache (SHARED), or the ACC
lease hierarchy (FUSION / FUSION-Dx).  This module extracts that choice
into first-class :class:`CoherenceStrategy` objects so it can be made
*per invocation* instead of per system class:

* a **strategy** is a small frozen spec (family + tunables such as the
  FUSION lease length) that is cheap to build, hashable, and printable
  (``strategy.key`` round-trips through :func:`make_strategy`);
* **binding** a strategy to a simulation context constructs the actual
  machinery (scratchpads + DMA engine, shared L1X, accelerator tile)
  exactly as the legacy system classes did — the systems in
  ``repro.systems`` are now thin presets over one bound strategy, and
  the golden grids pin that the extraction is bit-identical;
* a :class:`StrategyBinder` lazily binds at most one machinery instance
  per *family*, so a policy run that mixes ``fusion:lease=250`` and
  ``fusion:lease=1000`` shares a single tile (the lease is applied at
  the invocation boundary, as the hardware would), and a run that never
  selects a family never pays for its construction.

Mixing families in one run is coherent by construction: every cache
family registers as a named agent with the host directory, host-side
fetches recall other agents' copies, and the oracle-DMA paths recall
registered tile agents before streaming (see ``HostMemorySystem``).
"""

import abc
from dataclasses import dataclass, field, replace

from ..accel.core import AxcCore
from ..accel.tile import AcceleratorTile
from ..common.errors import ConfigError
from ..host.dma import OracleDmaController, ScratchpadAccessModel, \
    windows_for
from ..interconnect.link import Link
from ..mem.scratchpad import Scratchpad
from ..workloads.forwarding import forwarding_plan
from .directory import TILE
from .shared_l1 import ISSUE_INTERVAL, SharedL1XController


@dataclass
class BindContext:
    """Everything a strategy needs to build its machinery.

    ``workload`` may be ``None`` when no strategy in play derives
    per-workload structure (only FUSION-Dx forwarding plans need it).
    ``agent_name`` is the host-directory agent name for cache-based
    families; the default is the legacy single-tile name, which the
    :class:`StrategyBinder` overrides when several families coexist.
    """

    config: object
    host_mem: object
    page_table: object
    stats: object
    num_axcs: int
    workload: object = None
    agent_name: str = TILE


def bind_context(system):
    """The :class:`BindContext` of a single-workload system."""
    return BindContext(config=system.config, host_mem=system.host_mem,
                       page_table=system.page_table, stats=system.stats,
                       num_axcs=system.workload.num_axcs,
                       workload=system.workload)


class CoherenceStrategy(abc.ABC):
    """One coherence mode an invocation can run under."""

    #: Machinery family ("scratch" | "shared" | "fusion").  Strategies
    #: of one family share a single bound instance per run.
    family = None
    #: Whether binding registers a coherence agent with the host
    #: directory (cache families do; the DMA engine is not an agent).
    needs_agent = False

    @property
    @abc.abstractmethod
    def key(self):
        """Canonical spelling; ``make_strategy(key)`` round-trips."""

    @abc.abstractmethod
    def bind(self, ctx):
        """Construct this family's machinery; returns a bound strategy."""


@dataclass(frozen=True)
class ScratchpadDmaStrategy(CoherenceStrategy):
    """Oracle-DMA scratchpads (the paper's SCRATCH integration)."""

    family = "scratch"
    needs_agent = False

    @property
    def key(self):
        return "scratch"

    def bind(self, ctx):
        return BoundScratchpadDma(ctx)


@dataclass(frozen=True)
class SharedL1XStrategy(CoherenceStrategy):
    """One shared MESI L1X, no private caches (the SHARED design)."""

    family = "shared"
    needs_agent = True

    @property
    def key(self):
        return "shared"

    def bind(self, ctx):
        return BoundSharedL1X(ctx)


@dataclass(frozen=True)
class FusionLeaseStrategy(CoherenceStrategy):
    """The ACC lease hierarchy (FUSION), with a tunable lease length.

    ``lease=None`` reproduces the legacy resolution (the config's
    ``lease_override`` or the function's assigned lease time);
    an explicit ``lease`` pins every invocation-boundary epoch request
    to that length — the per-invocation knob the lease ablation sweeps
    per *system*.  ``forwarding`` enables the FUSION-Dx L0X-to-L0X
    write forwarding pass.
    """

    family = "fusion"
    needs_agent = True

    lease: int = None
    forwarding: bool = False

    def __post_init__(self):
        if self.lease is not None and self.lease < 0:
            raise ConfigError("negative lease {!r}".format(self.lease))

    @property
    def key(self):
        base = "fusion-dx" if self.forwarding else "fusion"
        if self.lease is None:
            return base
        return "{}:lease={}".format(base, self.lease)

    def bind(self, ctx):
        return BoundFusionTile(ctx)


def make_strategy(key):
    """Parse a strategy key into a :class:`CoherenceStrategy`.

    Accepted spellings: ``scratch``, ``shared``, ``fusion``,
    ``fusion-dx``, each optionally suffixed with ``:lease=N`` for the
    fusion family (``fusion:lease=250``).  Strategy instances pass
    through unchanged.
    """
    if isinstance(key, CoherenceStrategy):
        return key
    name, _, rest = str(key).partition(":")
    lease = None
    if rest:
        for part in rest.split(":"):
            option, _, value = part.partition("=")
            if option != "lease" or not value:
                raise ConfigError(
                    "unknown strategy option {!r} in {!r}".format(
                        part, key))
            try:
                lease = int(value)
            except ValueError:
                raise ConfigError(
                    "non-integer lease {!r} in {!r}".format(value, key)) \
                    from None
    if name == "scratch" or name == "shared":
        if lease is not None:
            raise ConfigError(
                "strategy {!r} takes no lease (leases are a fusion-"
                "family tunable)".format(name))
        return (ScratchpadDmaStrategy() if name == "scratch"
                else SharedL1XStrategy())
    if name == "fusion":
        return FusionLeaseStrategy(lease=lease)
    if name == "fusion-dx":
        return FusionLeaseStrategy(lease=lease, forwarding=True)
    raise ConfigError(
        "unknown coherence strategy {!r}; expected scratch, shared, "
        "fusion or fusion-dx (optionally :lease=N)".format(key))


# ---------------------------------------------------------------------------
# Bound strategies: the machinery, extracted verbatim from the systems
# ---------------------------------------------------------------------------

class BoundScratchpadDma:
    """Per-accelerator scratchpads + oracle coherent DMA engine."""

    family = "scratch"

    def __init__(self, ctx):
        config = ctx.config
        stats = ctx.stats
        self.stats = stats
        self.scratchpads = [
            Scratchpad(config.tile.scratchpad, name="sp{}".format(i))
            for i in range(ctx.num_axcs)
        ]
        self.access_models = [
            ScratchpadAccessModel(config, sp, stats)
            for sp in self.scratchpads
        ]
        self.cores = [AxcCore(i, stats) for i in range(ctx.num_axcs)]
        self.dma = OracleDmaController(config, ctx.host_mem,
                                       ctx.page_table, stats)
        # Push-based DMA double-buffers: half the scratchpad holds the
        # live window while the other half stages the next transfer, so
        # a window may only pin half the blocks.
        blocks = config.tile.scratchpad.num_blocks
        if config.dma.double_buffered:
            blocks //= 2
        self.capacity = max(1, blocks)

    def run(self, strategy, index, trace, now, axc, mlp):
        scratchpad = self.scratchpads[axc]
        model = self.access_models[axc]
        core = self.cores[axc]
        windows = windows_for(trace, self.capacity)
        self.stats.add("dma.windows", len(windows))
        for window_index, window in enumerate(windows):
            now += self.dma.transfer_in(window.in_blocks, scratchpad,
                                        now)
            now = core.run(window.trace, now, model.access, mlp,
                           charge_invocation=(window_index == 0))
            dirty = scratchpad.drain()
            now += self.dma.transfer_out(dirty, now)
        return now


class BoundSharedL1X:
    """One shared L1X participating in host MESI, plus the AXC cores."""

    family = "shared"

    def __init__(self, ctx):
        config = ctx.config
        self.l1x = SharedL1XController(config, ctx.host_mem,
                                       ctx.page_table, ctx.stats,
                                       agent_name=ctx.agent_name)
        self.l1x.axc_link = Link(
            "axc_l1x", config.link.axc_l1x_pj_per_byte, ctx.stats)
        ctx.host_mem.register_tile(ctx.agent_name, self.l1x)
        self.cores = [AxcCore(i, ctx.stats) for i in range(ctx.num_axcs)]

    def run(self, strategy, index, trace, now, axc, mlp):
        return self.cores[axc].run(
            trace, now, self.l1x.access, mlp,
            issue_interval=ISSUE_INTERVAL)


class BoundFusionTile:
    """The FUSION accelerator tile (L0Xs + L1X under ACC)."""

    family = "fusion"

    def __init__(self, ctx):
        self.config = ctx.config
        self.workload = ctx.workload
        self.tile = AcceleratorTile(ctx.config, ctx.host_mem,
                                    ctx.page_table, ctx.num_axcs,
                                    ctx.stats, name=ctx.agent_name)
        #: Forwarding plan, built lazily on the first forwarding
        #: invocation (a pure function of the workload trace).
        self._plan = None

    def forward_plan_for(self, strategy, index):
        if not strategy.forwarding:
            return None
        plan = self._plan
        if plan is None:
            if self.workload is None:
                raise ConfigError(
                    "forwarding strategy bound without a workload "
                    "(no trace to derive the forwarding plan from)")
            plan = self._plan = forwarding_plan(self.workload)
        return plan.get(index)

    def effective_lease(self, strategy, trace):
        if strategy.lease is not None:
            return strategy.lease
        return self.config.tile.lease_override or trace.lease_time

    def run(self, strategy, index, trace, now, axc, mlp):
        return self.tile.run_invocation(
            axc, trace, now, mlp,
            lease=self.effective_lease(strategy, trace),
            forward_plan=self.forward_plan_for(strategy, index))


class StrategyBinder:
    """Lazily bind strategies, sharing one machinery instance per family.

    The first cache family bound gets the legacy directory agent name
    (``"tile"``) so a single-family run — e.g. the static selector —
    is bit-identical to the corresponding legacy system; later cache
    families get fresh names, keeping host-directory exclusivity exact
    when families mix within one run.
    """

    def __init__(self, ctx):
        self._ctx = ctx
        self._bound = {}
        self._agents = 0

    def bind(self, strategy):
        bound = self._bound.get(strategy.family)
        if bound is None:
            ctx = self._ctx
            if strategy.needs_agent:
                self._agents += 1
                name = TILE if self._agents == 1 \
                    else "{}{}".format(TILE, self._agents)
                ctx = replace(ctx, agent_name=name)
            bound = self._bound[strategy.family] = strategy.bind(ctx)
        return bound

    @property
    def bound_families(self):
        """{family: bound strategy} for everything bound so far."""
        return dict(self._bound)
