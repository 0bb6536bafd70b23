"""Microbenchmarks of the simulator's hot paths (true pytest-benchmark
timing loops — these gate simulator performance regressions).

The ``test_micro_core_run_*`` pair measures the tentpole claim of the
trace-lowering layer directly: the same synthetic invocation interpreted
by the legacy per-op loop (replicated in ``perf_smoke.py``) vs executed
from its lowered stream by the production ``AxcCore.run``.  The
committed numbers (and the CI regression gate) live in
``results/perf_baseline.json`` via ``python benchmarks/perf_smoke.py``.
"""

import functools

import perf_smoke

from repro.accel.core import AxcCore
from repro.common.config import small_config
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, MemOp
from repro.coherence.acc import AccL0XController, AccL1XController
from repro.coherence.mesi import HostMemorySystem
from repro.interconnect.link import Link
from repro.mem.cache import SetAssocCache
from repro.mem.tlb import PageTable
from repro.workloads.lowering import lowered_trace


def test_micro_cache_lookup(benchmark):
    cache = SetAssocCache(small_config().tile.l0x)
    for i in range(64):
        cache.insert(i * 64)
    blocks = [(i % 64) * 64 for i in range(1024)]

    def lookups():
        for block in blocks:
            cache.lookup(block)

    benchmark(lookups)


def test_micro_acc_hit_path(benchmark):
    config = small_config()
    stats = StatsRegistry()
    mem = HostMemorySystem(config, stats)
    l1x = AccL1XController(config, mem, PageTable(), stats)
    mem.tile_agent = l1x
    l0x = AccL0XController(0, config, l1x, Link("axc_l1x", 0.4, stats),
                           Link("fwd", 0.1, stats), stats)
    ops = [MemOp(AccessType.LOAD, (i % 32) * 4) for i in range(512)]

    def accesses():
        for i, op in enumerate(ops):
            l0x.access(op, now=i, lease=1_000_000)

    benchmark(accesses)


def test_micro_core_run_lowered(benchmark):
    """Ops/sec of the production core over the pre-lowered stream."""
    trace = perf_smoke.make_trace()
    core = AxcCore(0, StatsRegistry())
    lowered_trace(trace, core.issue_width)  # lower once, outside the loop

    benchmark(lambda: core.run(trace, 0, perf_smoke._flat_access, mlp=4))


def test_micro_core_run_legacy(benchmark):
    """Ops/sec of the replicated pre-lowering interpreter (comparison
    point for the speedup the lowering layer claims)."""
    trace = perf_smoke.make_trace()
    core = AxcCore(0, StatsRegistry())

    benchmark(lambda: perf_smoke.legacy_run(
        core, trace, 0, perf_smoke._flat_access, mlp=4))


def test_micro_lowered_matches_legacy():
    """Semantics gate: both interpreters end at the same cycle."""
    trace = perf_smoke.make_trace()
    core = AxcCore(0, StatsRegistry())
    legacy_end = perf_smoke.legacy_run(
        core, trace, 0, perf_smoke._flat_access, mlp=4)
    lowered_end = core.run(trace, 0, perf_smoke._flat_access, mlp=4)
    assert lowered_end == legacy_end


def test_micro_acc_run_per_op(benchmark):
    """Ops/sec expanding every access-run op through a warm ACC L0X."""
    trace = perf_smoke.make_run_trace()
    core = AxcCore(0, StatsRegistry())
    l0x = perf_smoke.build_acc_l0x()
    l0x.invocation_lease = trace.lease_time
    core.run(trace, 0, l0x.access, mlp=4)  # install every line

    benchmark(lambda: core.run(trace, 0, l0x.access, mlp=4))


@functools.lru_cache(maxsize=1)
def _iterated_fft_workload():
    """A small iterated FFT: every invocation recurs eight times."""
    from repro.workloads.kernels import fft
    from repro.workloads.registry import _factory

    workload, _ = fft.build_workload(_factory, n=128, iterations=8)
    return workload


def _run_fusion(workload):
    from repro.systems import SYSTEMS

    return SYSTEMS["FUSION"](small_config(), workload).run()


def test_micro_fusion_fft(benchmark):
    """Whole-system wall time of the iterated FFT on FUSION."""
    workload = _iterated_fft_workload()
    _run_fusion(workload)  # warm the lowering/DMA trace caches

    benchmark(lambda: _run_fusion(workload))


def test_micro_host_load_hit(benchmark):
    config = small_config()
    mem = HostMemorySystem(config, StatsRegistry())
    mem.host_load(0x40)

    def loads():
        for _ in range(512):
            mem.host_load(0x40)

    benchmark(loads)
