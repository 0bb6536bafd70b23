"""POLICY: per-invocation coherence-strategy selection.

Instead of fixing one coherence design for the whole run, this system
consults a selector (:mod:`repro.policy.selectors`) at every invocation
boundary and binds the chosen :class:`CoherenceStrategy` — scratchpad
DMA, shared L1X, or a FUSION lease variant — through a
:class:`~repro.coherence.strategy.StrategyBinder` that lazily builds at
most one machinery instance per family.  Mixed-family runs stay
coherent because every cache family is a named host-directory agent and
the DMA paths recall tile copies (see :mod:`repro.coherence.strategy`).

With the static selector the run is bit-identical to the corresponding
legacy system (same machinery, same construction order — gated by the
golden-equivalence tests); the schedule selector replays an explicit
per-invocation assignment (the oracle evaluator's vehicle); the bandit
selectors learn from :class:`InvocationTelemetry` online.

Telemetry-recording runs additionally publish per-invocation cycle
counters (``policy.inv.<index>.cycles``) and per-strategy invocation
counts (``policy.strategy.<key>.invocations``) so the oracle evaluator
can read per-invocation costs out of cached :class:`RunResult` stats.
"""

from ..coherence.lease_policy import CountingLeasePolicy
from ..coherence.strategy import StrategyBinder, bind_context
from .base import BaseSystem


class PolicySystem(BaseSystem):
    """Per-invocation strategy selection over lazily-bound machinery."""

    name = "POLICY"

    def __init__(self, config, workload, selector=None):
        #: Pre-built selector (in-process bandit training hands the
        #: same learning selector to several runs); None means build
        #: one from ``config.policy``.
        self._injected_selector = selector
        super().__init__(config, workload)

    def _build(self):
        # Lazy import: repro.policy pulls in the sim engine, which
        # imports the systems registry (and therefore this module).
        from ..policy.selectors import make_selector
        from ..workloads.characterize import invocation_features
        self.binder = StrategyBinder(bind_context(self))
        self.selector = (self._injected_selector
                         if self._injected_selector is not None
                         else make_selector(self.config.policy,
                                            self.workload))
        self._recording = (self.config.policy.record_telemetry
                           or self.selector.records_telemetry)
        #: InvocationTelemetry records, program order (recording runs).
        self.telemetry = []
        self._features = (invocation_features(self.workload)
                          if self._recording else None)
        #: Shared lease-event counts fed by CountingLeasePolicy wraps.
        self._lease_counts = {"renewal_misses": 0, "wasted_leases": 0}
        self._counted_tiles = set()

    def _instrument_lease_policies(self, bound):
        """Wrap the bound fusion tile's L0X lease policies (once) so
        telemetry sees lease expiries without new controller counters."""
        if id(bound) in self._counted_tiles:
            return
        self._counted_tiles.add(id(bound))
        for l0x in bound.tile.l0xs:
            l0x.lease_policy = CountingLeasePolicy(
                l0x.lease_policy, self._lease_counts)

    def _run_invocation(self, index, trace, now):
        from ..policy.telemetry import telemetry_from_delta
        strategy = self.selector.select(index, trace)
        bound = self.binder.bind(strategy)
        if not self._recording:
            end = bound.run(strategy, index, trace, now,
                            axc=self._axc_of(trace),
                            mlp=self._mlp(trace))
            self.selector.observe(index, trace, strategy, end - now,
                                  None)
            return end
        if strategy.family == "fusion":
            self._instrument_lease_policies(bound)
        before = self.stats.snapshot()
        expiries_before = self._lease_counts["renewal_misses"]
        wasted_before = self._lease_counts["wasted_leases"]
        end = bound.run(strategy, index, trace, now,
                        axc=self._axc_of(trace), mlp=self._mlp(trace))
        cycles = end - now
        reuse, footprint = self._features[index]
        record = telemetry_from_delta(
            index, trace, strategy.key, cycles,
            self.stats.diff(before),
            reuse_distance=reuse, footprint_blocks=footprint,
            lease_expiries=(self._lease_counts["renewal_misses"]
                            - expiries_before),
            wasted_leases=(self._lease_counts["wasted_leases"]
                           - wasted_before))
        self.telemetry.append(record)
        # Published stats (keys deliberately avoid the energy_pj /
        # stall_cycles suffixes the delta extractors aggregate on).
        self.stats.add("policy.inv.{}.cycles".format(index), cycles)
        self.stats.add(
            "policy.strategy.{}.invocations".format(strategy.key))
        self.selector.observe(index, trace, strategy, cycles, record)
        return end
