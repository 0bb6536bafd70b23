"""The fixed-function accelerator cycle model.

The paper (Section 4) drives a constrained dynamic data-dependence graph
"on a cycle-by-cycle [basis], generating any requisite memory operations
in a cycle and stalling the appropriate operations as necessary", with an
aggressive non-blocking memory interface.  This model reproduces that
behaviour at trace granularity:

* compute chunks advance time by their dataflow-limited latency
  (activity / issue width);
* memory operations overlap up to the function's memory-level
  parallelism (MLP), with MSHR-style merging of accesses to a block
  whose fill is already outstanding;
* the memory system is a caller-provided ``access_fn(op, now) ->
  latency`` closure, so one core model serves every system design.

Hot path: the core never walks the raw heterogeneous ``trace.ops`` list.
:mod:`repro.workloads.lowering` compiles each trace once into a flat
stream of ``(mem_op, block, count)`` / ``(None, latency, 1)`` tuples —
adjacent compute ops pre-fused, line addresses pre-aligned, consecutive
same-line same-kind memory ops grouped into *access runs* — and both
:meth:`AxcCore.run` (tight loop) and :meth:`AxcCore.iter_run`
(generator, for the pipelined scheduler) interpret that stream with no
per-op type dispatch.  A run is expanded op by op: every op of a run is
served by its own ``access_fn`` call with the run's first op, which is
interchangeable with the others (same kind, same line).  The per-op
interpreter is the only serving path; ``tests/test_golden_full.py`` and
``tests/test_golden_small.py`` pin it bit-identical to the recorded
baselines.

Energy: Aladdin-style activity counts are charged per compute chunk.
"""

import heapq

from ..energy.accel_energy import INVOCATION_OVERHEAD_PJ, compute_energy_pj
from ..workloads.lowering import lowered_trace


class AxcCore:
    """One fixed-function accelerator's datapath and memory interface."""

    def __init__(self, axc_id, stats, issue_width=4):
        self.axc_id = axc_id
        self.issue_width = issue_width
        self.stats = stats.scope("axc")
        self._core_stats = stats.scope("axc.core{}".format(axc_id))
        # Bound counter handles: dotted names resolved once, not per op.
        self._add_mlp_stall = self._core_stats.counter("mlp_stall_cycles")
        self._add_mshr_merge = self._core_stats.counter("mshr_merges")

    def run(self, trace, start_time, access_fn, mlp, issue_interval=1,
            charge_invocation=True):
        """Execute one invocation to completion; returns the end time.

        Args:
            trace: the :class:`FunctionTrace` to execute.
            start_time: tile clock at invocation start.
            access_fn: ``(MemOp, now) -> latency`` memory-system closure.
            mlp: maximum outstanding memory operations.
            issue_interval: cycles between memory-op issues — 1 for a
                local store (scratchpad/L0X), 2 when every op crosses a
                shared switch whose request and response flits serialise
                on the same link (the SHARED design).
            charge_invocation: charge the fixed per-invocation
                control/sequencing energy.  SCRATCH passes False for the
                continuation windows of one invocation — the datapath
                stays configured across DMA windows.
        """
        mlp = max(1, int(mlp))
        lowered = lowered_trace(trace, self.issue_width)
        now = start_time
        outstanding = []            # heap of completion times
        fill_time_of = {}           # block -> outstanding completion
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending_fill = fill_time_of.get
        add_mlp_stall = self._add_mlp_stall
        add_mshr_merge = self._add_mshr_merge
        for op, arg, count in lowered.steps:
            if op is None:          # fused compute chunk
                now += arg
                continue
            # Expand the access run op by op (a while loop, not range:
            # most runs hold one op, and this is the hottest loop).
            while count:
                # Retire fills that have arrived.
                while outstanding and outstanding[0] <= now:
                    heappop(outstanding)
                # MLP limit: wait for the earliest outstanding fill.
                if len(outstanding) >= mlp:
                    earliest = heappop(outstanding)
                    if earliest > now:
                        add_mlp_stall(earliest - now)
                        now = earliest
                latency = access_fn(op, now)
                completion = now + latency
                # MSHR merge: an access cannot complete before an
                # already-outstanding fill of the same block.
                pending = pending_fill(arg)
                if pending is not None and pending > completion:
                    completion = pending
                    add_mshr_merge()
                fill_time_of[arg] = completion
                heappush(outstanding, completion)
                now += issue_interval  # issue slot(s)
                count -= 1
        if outstanding:
            now = max(now, max(outstanding))
        self._record(lowered, now - start_time, charge_invocation)
        return now

    def iter_run(self, trace, start_time, access_fn, mlp,
                 issue_interval=1, charge_invocation=True):
        """Generator form of :meth:`run`: yields the local clock after
        every memory-op issue, so a scheduler can interleave several
        invocations on one tile (pipelined execution).  The generator's
        return value is the completion time.
        """
        mlp = max(1, int(mlp))
        lowered = lowered_trace(trace, self.issue_width)
        now = start_time
        outstanding = []
        fill_time_of = {}
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending_fill = fill_time_of.get
        add_mlp_stall = self._add_mlp_stall
        add_mshr_merge = self._add_mshr_merge
        for op, arg, count in lowered.steps:
            if op is None:
                now += arg
                continue
            for _ in range(count):
                while outstanding and outstanding[0] <= now:
                    heappop(outstanding)
                if len(outstanding) >= mlp:
                    earliest = heappop(outstanding)
                    if earliest > now:
                        add_mlp_stall(earliest - now)
                        now = earliest
                latency = access_fn(op, now)
                completion = now + latency
                pending = pending_fill(arg)
                if pending is not None and pending > completion:
                    completion = pending
                    add_mshr_merge()
                fill_time_of[arg] = completion
                heappush(outstanding, completion)
                now += issue_interval
                yield now
        if outstanding:
            now = max(now, max(outstanding))
        self._record(lowered, now - start_time, charge_invocation)
        return now

    def _record(self, lowered, cycles, charge_invocation=True):
        energy = compute_energy_pj(lowered.int_ops, lowered.fp_ops)
        if charge_invocation:
            energy += INVOCATION_OVERHEAD_PJ
            self.stats.add("invocations")
        self.stats.add("compute.energy_pj", energy)
        self._core_stats.add("cycles", cycles)
        self._core_stats.add("mem_ops", lowered.mem_ops)
        self._core_stats.add("int_ops", lowered.int_ops)
        self._core_stats.add("fp_ops", lowered.fp_ops)
