"""Property-based tests: the steady-state phase engine is invisible.

The phase fast path (``phase_quote`` + the bulk timeline application in
``AxcCore.run``) sits one rung above run coalescing on the fallback
ladder (``docs/simulator.md`` §10) and, like it, is a pure interpreter
optimisation: for any trace, on any evaluated system, the
:class:`RunResult` with ``STEADY_PHASES`` enabled must be
*bit-identical* — every cycle count and every stats counter, floats
compared via ``repr`` — to the one computed with the engine disabled
(which serves the same stream through the coalesced-run path).

The traces are biased toward the engine's targets (long eligible
stretches of re-touched lines) *and* its guards: kind changes mid
stretch, cross-line churn through the tiny L0X, compute interleave, and
— adversarially — lease times so short that leases expire mid-phase,
forcing ACC's cover guard to decline every quote and drop the whole
stream down the ladder.  A wider block pool whose runs crowd one L0X
set, with every function invoked several times round-robin, evicts L0X
lines under pressure.
"""

from hypothesis import given, note, settings
from hypothesis import strategies as st

import repro.accel.core as core_mod
from repro.common.config import small_config
from repro.common.types import AccessType, ComputeOp, FunctionTrace, \
    MemOp, WorkloadTrace
from repro.mem.cache import SetAssocCache
from repro.systems import SYSTEMS
from repro.systems.multitenant import MultiTenantFusionSystem

# A segment is either a same-line access run (block index, store?,
# length) or a compute op.  Runs up to 12 ops long build windows the
# phase compiler accepts; a 16-line pool keeps lines churning.
run_segment = st.tuples(
    st.integers(0, 15),       # block index in the shared pool
    st.booleans(),            # store?
    st.integers(1, 12),       # run length
)
compute_segment = st.builds(ComputeOp, int_ops=st.integers(1, 8))
segments = st.lists(st.one_of(run_segment, compute_segment),
                    min_size=1, max_size=24)

workloads = st.lists(
    st.tuples(st.integers(0, 2), segments),   # (function tag, segments)
    min_size=1, max_size=4)

#: Lease times from "expires before a phase can even open" through the
#: catalog default: the short end drives ACC's cover guard (and the
#: lease-capped plan slicer's span cap) into its decline branches.
lease_times = st.sampled_from([1, 3, 7, 30, 250])

#: Block pool spanning more lines than the small config's 64-line L0X
#: (16 sets x 4 ways).  Pressure runs touch every sixteenth block, so
#: their 6 lines share one 4-way set and evict each other.
PRESSURE_BLOCKS = 96
PRESSURE_STRIDE = 16

pressure_segment = st.tuples(
    st.integers(0, PRESSURE_BLOCKS // PRESSURE_STRIDE - 1).map(
        lambda index: index * PRESSURE_STRIDE),
    st.booleans(),
    st.integers(1, 12),
)
pressure_workloads = st.lists(
    st.tuples(st.integers(0, 2),
              st.lists(st.one_of(pressure_segment, compute_segment),
                       min_size=12, max_size=24)),
    min_size=1, max_size=3)

iteration_counts = st.integers(3, 6)

BASE = 0x10000


def _expand(segs):
    ops = []
    for seg in segs:
        if isinstance(seg, ComputeOp):
            ops.append(seg)
            continue
        index, is_store, length = seg
        kind = AccessType.STORE if is_store else AccessType.LOAD
        for word in range(length):
            ops.append(MemOp(kind, BASE + index * 64 + (word % 8) * 8))
    return ops


def build(spec, lease_time=250, num_blocks=16, iterations=1):
    functions = [
        FunctionTrace(name="fn{}".format(tag), benchmark="prop",
                      ops=_expand(segs), lease_time=lease_time)
        for tag, segs in spec
        if _expand(segs)
    ]
    # Round-robin repetition, like the paper's streaming pipelines.
    invocations = [trace for _ in range(iterations) for trace in functions]
    size = num_blocks * 64
    return WorkloadTrace(
        benchmark="prop", invocations=invocations,
        host_input_arrays=[(BASE, size)],
        host_output_arrays=[(BASE, size)],
        array_ranges={"pool": (BASE, size)},
    )


def fingerprint(result):
    """Everything a RunResult reports, floats pinned via ``repr``."""
    return {
        "accel_cycles": result.accel_cycles,
        "total_cycles": result.total_cycles,
        "energy_pj": repr(result.energy.total_pj),
        "stats": sorted((name, repr(value))
                        for name, value in result.stats.items()),
    }


def run_both_paths(make_system):
    original = core_mod.STEADY_PHASES
    try:
        core_mod.STEADY_PHASES = True
        phased = make_system().run()
        core_mod.STEADY_PHASES = False
        fallback = make_system().run()
    finally:
        core_mod.STEADY_PHASES = original
    return phased, fallback


@given(workloads)
@settings(max_examples=20, deadline=None)
def test_phase_results_bit_identical_on_all_systems(spec):
    """All six systems — the four designs, IDEAL and the pipelined
    tile — report identical results with the engine on and off."""
    note("workload spec: {!r}".format(spec))
    workload = build(spec)
    if not workload.invocations:
        return
    for system_cls in SYSTEMS.values():
        phased, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(phased) == fingerprint(fallback), \
            "phase engine changed {} results".format(system_cls.name)


@given(workloads, lease_times)
@settings(max_examples=20, deadline=None)
def test_adversarial_leases_stay_bit_identical(spec, lease_time):
    """Leases expiring mid-phase (or before one opens) must make the
    guard decline — never corrupt the timeline."""
    note("workload spec: {!r} lease_time={}".format(spec, lease_time))
    workload = build(spec, lease_time=lease_time)
    if not workload.invocations:
        return
    for name in ("FUSION", "FUSION-Dx", "FUSION-PIPE"):
        system_cls = SYSTEMS[name]
        phased, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(phased) == fingerprint(fallback), \
            "phase engine changed {} results under lease {}".format(
                name, lease_time)


@given(workloads, workloads)
@settings(max_examples=15, deadline=None)
def test_multitenant_bit_identical(spec_a, spec_b):
    """Two co-resident processes time-sharing one tile: the phase
    engine must stay invisible across the interleaved invocations."""
    note("workload specs: {!r} / {!r}".format(spec_a, spec_b))
    tenants = [build(spec_a), build(spec_b, lease_time=30)]
    if not all(w.invocations for w in tenants):
        return
    phased, fallback = run_both_paths(
        lambda: MultiTenantFusionSystem(small_config(), tenants))
    assert fingerprint(phased) == fingerprint(fallback), \
        "phase engine changed multi-tenant results"


@given(pressure_workloads, iteration_counts)
@settings(max_examples=10, deadline=None)
def test_eviction_under_pressure_stays_bit_identical(spec, iterations):
    """A pool wider than the L0X, invoked round-robin several times:
    lines evicted between repeated invocations must make the guard
    decline, never serve a stale hit."""
    note("workload spec: {!r} x{}".format(spec, iterations))
    workload = build(spec, num_blocks=PRESSURE_BLOCKS,
                     iterations=iterations)
    if not workload.invocations:
        return
    for name in ("FUSION", "FUSION-Dx", "SCRATCH"):
        system_cls = SYSTEMS[name]
        phased, fallback = run_both_paths(
            lambda: system_cls(small_config(), workload))
        assert fingerprint(phased) == fingerprint(fallback), \
            "phase engine changed {} results under pressure".format(name)


def test_pressure_pool_evicts_l0x_lines(monkeypatch):
    """Anti-vacuity: the pressure shape really evicts L0X lines."""
    victims = []
    install = SetAssocCache.install

    def counting(self, addr, **fields):
        line, victim = install(self, addr, **fields)
        if victim is not None and self.name.startswith("l0x"):
            victims.append(victim.block)
        return line, victim

    monkeypatch.setattr(SetAssocCache, "install", counting)
    segs = [(index, index % 3 == 0, 4)
            for index in range(0, PRESSURE_BLOCKS, PRESSURE_STRIDE)]
    workload = build([(0, segs)], num_blocks=PRESSURE_BLOCKS, iterations=3)
    SYSTEMS["FUSION"](small_config(), workload).run()
    assert victims
