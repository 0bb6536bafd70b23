"""Perf smoke: guard the lowered hot path's speedup against regression.

The trace-lowering layer (``repro.workloads.lowering``) exists to make
the per-access inner loop fast; this script *measures* that claim and
fails when it regresses.  It times the same synthetic invocation two
ways:

* **legacy** — a faithful replica of the pre-lowering interpreter
  (isinstance dispatch over ``trace.ops``, per-op ``math.ceil``,
  ``op.block`` property, dotted-name stats), kept here as the fixed
  comparison point;
* **lowered** — the production :meth:`repro.accel.core.AxcCore.run`
  over the compiled stream.

It also measures the prepared-trace load: a bare ``pickle.loads`` of a
small-size trace with the collector off against ``prepared_workload``
reading the same entry, which must keep the cyclic collector off the
new trace heap.

The simulation pair must produce the *same end time* (semantics
check), and each fast/slow ratio must stay within ``TOLERANCE`` of the
committed baseline (``benchmarks/results/perf_baseline.json``).
Comparing *ratios* rather than absolute ops/sec keeps the gate
meaningful across machines of different speeds.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py                  # gate
    PYTHONPATH=src python benchmarks/perf_smoke.py --write-baseline # regen
"""

import argparse
import heapq
import json
import math
import pathlib
import sys
import time

from repro.accel.core import AxcCore
from repro.common.stats import StatsRegistry
from repro.common.types import AccessType, ComputeOp, FunctionTrace, MemOp

BASELINE_PATH = (pathlib.Path(__file__).parent / "results"
                 / "perf_baseline.json")

#: Allowed relative drop of the lowered/legacy speedup ratio before the
#: gate fails (satellite requirement: >30% regression fails CI).
TOLERANCE = 0.30

#: Best-of-N timing repeats (the minimum is robust to scheduler noise).
REPEATS = 5


def make_trace(num_mem_ops=4096, blocks=64):
    """Synthetic invocation exercising both op kinds on the hot path."""
    ops = []
    for i in range(num_mem_ops):
        ops.append(ComputeOp(int_ops=3, fp_ops=1))
        ops.append(MemOp(
            AccessType.STORE if i % 4 == 3 else AccessType.LOAD,
            (i % blocks) * 64 + (i % 8) * 8))
    return FunctionTrace(name="perf_smoke", benchmark="perf_smoke",
                         ops=ops, lease_time=1000)


def make_run_trace(num_runs=512, run_len=8, blocks=32):
    """Run-heavy synthetic invocation: ``num_runs`` maximal access runs
    of ``run_len`` same-line loads, each preceded by a compute chunk (so
    lowering cannot merge adjacent runs on the same line)."""
    ops = []
    for i in range(num_runs):
        ops.append(ComputeOp(int_ops=3, fp_ops=1))
        base = (i % blocks) * 64
        for j in range(run_len):
            ops.append(MemOp(AccessType.LOAD, base + (j % 8) * 8))
    return FunctionTrace(name="perf_smoke_runs", benchmark="perf_smoke",
                         ops=ops, lease_time=1_000_000)


def build_acc_l0x():
    """A minimal but real ACC protocol stack (L0X over L1X over the host
    memory system) for timing the controller hot path in isolation."""
    from repro.common.config import small_config
    from repro.coherence.acc import AccL0XController, AccL1XController
    from repro.coherence.mesi import HostMemorySystem
    from repro.interconnect.link import Link
    from repro.mem.tlb import PageTable

    config = small_config()
    stats = StatsRegistry()
    mem = HostMemorySystem(config, stats)
    l1x = AccL1XController(config, mem, PageTable(), stats)
    mem.tile_agent = l1x
    return AccL0XController(0, config, l1x, Link("axc_l1x", 0.4, stats),
                            Link("fwd", 0.1, stats), stats)


def legacy_iter_run(core, trace, start_time, access_fn, mlp,
                    issue_interval=1, charge_invocation=True):
    """The pre-lowering ``AxcCore.iter_run``, replicated verbatim.

    This is the fixed comparison point for the speedup measurement; it
    must keep paying the historical per-op costs (isinstance dispatch,
    ``op.block`` property, ``math.ceil`` per ComputeOp, dotted stats
    adds) so the ratio tracks what lowering actually buys.
    """
    mlp = max(1, int(mlp))
    now = start_time
    outstanding = []            # heap of completion times
    fill_time_of = {}           # block -> outstanding completion
    int_ops = 0
    fp_ops = 0
    mem_ops = 0
    for op in trace.ops:
        if isinstance(op, ComputeOp):
            int_ops += op.int_ops
            fp_ops += op.fp_ops
            now += max(1, math.ceil(op.total / core.issue_width))
            continue
        if not isinstance(op, MemOp):
            continue
        mem_ops += 1
        while outstanding and outstanding[0] <= now:
            heapq.heappop(outstanding)
        if len(outstanding) >= mlp:
            earliest = heapq.heappop(outstanding)
            if earliest > now:
                core._core_stats.add("mlp_stall_cycles", earliest - now)
                now = earliest
        latency = access_fn(op, now)
        completion = now + latency
        pending = fill_time_of.get(op.block)
        if pending is not None and pending > completion:
            completion = pending
            core._core_stats.add("mshr_merges")
        fill_time_of[op.block] = completion
        heapq.heappush(outstanding, completion)
        now += issue_interval
        yield now
    if outstanding:
        now = max(now, max(outstanding))
    core._core_stats.add("cycles", now - start_time)
    core._core_stats.add("mem_ops", mem_ops)
    core._core_stats.add("int_ops", int_ops)
    core._core_stats.add("fp_ops", fp_ops)
    return now


def legacy_run(core, trace, start_time, access_fn, mlp,
               issue_interval=1):
    """Drive :func:`legacy_iter_run` like the pre-lowering ``run`` did."""
    generator = legacy_iter_run(core, trace, start_time, access_fn, mlp,
                                issue_interval)
    while True:
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value


def _flat_access(op, now):
    return 2


def _best_seconds(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_measurement():
    """Measure legacy vs lowered ops/sec; returns the metrics dict."""
    trace = make_trace()
    total_ops = len(trace.ops)
    core = AxcCore(0, StatsRegistry())

    legacy_end = legacy_run(core, trace, 0, _flat_access, mlp=4)
    lowered_end = core.run(trace, 0, _flat_access, mlp=4)
    if legacy_end != lowered_end:
        raise AssertionError(
            "semantics drift: legacy end {} != lowered end {}".format(
                legacy_end, lowered_end))

    legacy_s = _best_seconds(
        lambda: legacy_run(core, trace, 0, _flat_access, mlp=4))
    lowered_s = _best_seconds(
        lambda: core.run(trace, 0, _flat_access, mlp=4))
    legacy_ops = total_ops / legacy_s
    lowered_ops = total_ops / lowered_s
    return {
        "trace_ops": total_ops,
        "legacy_ops_per_s": round(legacy_ops),
        "lowered_ops_per_s": round(lowered_ops),
        "speedup": round(lowered_ops / legacy_ops, 3),
    }


def run_trace_load_measurement(benchmark="histogram", size="small",
                               repeats=REPEATS):
    """Measure a prepared-trace load against a bare unpickle; returns
    the metrics dict.

    One small-size prepared trace (about 6 MB of pickle) is written to
    a scratch cache, then read back two ways per repeat, interleaved
    best-of-N: ``pickle.loads`` of its bytes with the cyclic collector
    disabled (the floor), and ``prepared_workload`` through a fresh
    :class:`~repro.sim.engine.DiskCache` (disk read, unpickle, and the
    engine's collector handling).  ``ratio`` is floor time over load
    time: near 1 when the load keeps the collector off the new objects,
    about 0.4 when full collections walk them mid-unpickle.
    """
    import gc
    import pickle
    import tempfile

    from repro.sim.engine import DiskCache, prepared_workload
    from repro.workloads.registry import clear_caches

    unpickle_s = load_s = float("inf")
    with tempfile.TemporaryDirectory() as root:
        prepared_workload(benchmark, size, DiskCache(root))
        clear_caches()  # drop the registry's copy of the built trace
        [path] = pathlib.Path(root).rglob("*.pkl")
        data = path.read_bytes()
        for _ in range(repeats):
            gc.disable()
            try:
                start = time.perf_counter()
                workload = pickle.loads(data)
                unpickle_s = min(unpickle_s, time.perf_counter() - start)
            finally:
                gc.enable()
            del workload
            cache = DiskCache(root)
            start = time.perf_counter()
            workload = prepared_workload(benchmark, size, cache)
            load_s = min(load_s, time.perf_counter() - start)
            if cache.trace_disk_hits != 1:
                raise AssertionError("prepared trace was not read from disk")
            del workload, cache
    return {
        "benchmark": benchmark,
        "size": size,
        "trace_mb": round(len(data) / 1e6, 2),
        "unpickle_s": round(unpickle_s, 4),
        "load_s": round(load_s, 4),
        "ratio": round(unpickle_s / load_s, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help="measure and (re)write the committed "
                             "baseline JSON instead of gating")
    args = parser.parse_args(argv)

    metrics = run_measurement()
    print("legacy : {legacy_ops_per_s:>10,} ops/s".format(**metrics))
    print("lowered: {lowered_ops_per_s:>10,} ops/s".format(**metrics))
    print("speedup: {speedup:.2f}x (lowered over legacy)".format(**metrics))
    trace_load = run_trace_load_measurement()
    print("unpickle : {unpickle_s:>10.3f} s ({benchmark} {size}, {trace_mb} "
          "MB, collector off)".format(**trace_load))
    print("load     : {load_s:>10.3f} s (prepared_workload, fresh "
          "cache)".format(**trace_load))
    print("ratio: {ratio:.2f}x (bare unpickle time over prepared-trace "
          "load time)".format(**trace_load))

    if args.write_baseline:
        payload = {
            "_provenance": (
                "Recorded by `PYTHONPATH=src python benchmarks/"
                "perf_smoke.py --write-baseline` ({}).  CI gates only "
                "the machine-independent ratios (micro.speedup, "
                "trace_load.ratio); wall-clock comparisons are "
                "only meaningful interleaved on one machine state.  "
                "trace_load.ratio "
                "is a bare collector-off unpickle of a small-size trace "
                "over prepared_workload loading it, interleaved "
                "best-of-N.".format(time.strftime("%Y-%m-%d"))),
            "micro": metrics,
            "trace_load": trace_load,
            "tolerance": TOLERANCE,
        }
        BASELINE_PATH.parent.mkdir(exist_ok=True)
        BASELINE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
        print("wrote {}".format(BASELINE_PATH))
        return 0

    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        print("no baseline at {}; run with --write-baseline".format(
            BASELINE_PATH), file=sys.stderr)
        return 2
    tolerance = baseline.get("tolerance", TOLERANCE)
    failed = False
    gates = [("lowered hot path", baseline["micro"]["speedup"],
              metrics["speedup"])]
    if "trace_load" in baseline:
        gates.append(("prepared-trace load",
                      baseline["trace_load"]["ratio"], trace_load["ratio"]))
    for label, reference, measured in gates:
        floor = reference * (1.0 - tolerance)
        print("{}: baseline {:.2f}x; floor {:.2f}x; "
              "measured {:.2f}x".format(label, reference, floor, measured))
        if measured < floor:
            print("FAIL: {} regressed more than {:.0%} vs baseline".format(
                label, tolerance), file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("OK: hot paths within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
