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
per-op type dispatch.  The two paths are exercised for equivalence by
``tests/test_lowering.py`` and both are pinned bit-identical to the
legacy interpreter by ``tests/test_golden_full.py``.

Run coalescing: when the caller supplies an ``access_run`` entry point
(the protocol controllers' run-coalescing fast path), a whole run is
served by *one* protocol call returning the constant per-op latency;
the core then replays the issue timeline locally (heap bookkeeping
only — no per-op protocol traversal, no per-op stats) which is exact
because every op in the run has the same latency and the same block.
``access_run`` returns ``None`` to decline (guard failed), in which
case the run is expanded op-by-op through ``access_fn`` exactly as
before.  The module-level ``COALESCE_RUNS`` switch (read at call time)
force-disables the fast path — the coalesced-vs-per-op equivalence
property test flips it to prove bit-identity.

Steady-state phases: one level above runs, the phase compiler
(:mod:`repro.workloads.phases`) partitions the stream into windows that
are steady-state *candidates*.  When the caller supplies a
``phase_quote`` hook, each candidate window is offered to the protocol
controller as a whole: a non-``None`` quote means every op of the phase
was served and accounted in one protocol step (bulk sequence flusher,
exact LRU advance), and the core applies a
:class:`~repro.workloads.phases.PhaseTimeline` cached per relative
entry state (outstanding fills expressed as clock offsets) in O(1) —
a cache miss replays the issue timeline once, with no protocol calls,
and serves every later entry with the same signature.  A declined quote
drops the window to the per-run coalesced path, and below that the
per-op path: the fallback ladder of ``docs/simulator.md`` §10, whose
top rung this is.  ``STEADY_PHASES`` (initialised from the environment
variable of the same name, read at call time like ``COALESCE_RUNS``)
toggles the path for equivalence testing.

Energy: Aladdin-style activity counts are charged per compute chunk.
"""

import heapq
import os

from ..energy.accel_energy import INVOCATION_OVERHEAD_PJ, compute_energy_pj
from ..workloads.lowering import lowered_trace
from ..workloads.phases import phase_plan

#: Global enable for the run-coalescing fast path; tests flip this to
#: run the same workload through both paths.
COALESCE_RUNS = True

#: Global enable for the steady-state phase fast path; the environment
#: variable ``STEADY_PHASES`` (0/false/off to disable) sets the initial
#: value, and the equivalence property tests flip the module attribute.
STEADY_PHASES = os.environ.get("STEADY_PHASES", "1").strip().lower() \
    not in ("0", "false", "off", "no")

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
            charge_invocation=True, access_run=None, phase_quote=None,
            leased_phases=True):
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
            access_run: optional ``(op, count, now, horizon,
                issue_interval) -> latency | None`` run-coalescing entry
                point, tried on every access run of length >= 2.
                Returning the (constant) per-op latency means all
                ``count`` remaining ops were served — counters flushed,
                state updated — in one protocol step, and the core
                replays the timeline locally.  Returning ``None``
                declines (guard failed): the core expands one op
                through ``access_fn`` and retries with the remainder,
                so a run whose first op installs the line still
                coalesces its tail.  ``horizon`` is
                ``max(now, max(outstanding))`` —
                an upper-bound anchor for the controller's lease-span
                guard (no per-op time inside the run can exceed
                ``horizon + count * (latency + issue_interval)``).
            phase_quote: optional ``(phase, now, horizon,
                issue_interval) -> (load_lat, store_lat) | None``
                steady-state phase entry point, tried on every compiled
                phase of the trace's :class:`~repro.workloads.phases.
                PhasePlan`.  A non-``None`` quote means the controller
                served and accounted *every* op of the phase (bulk
                ledger flush, LRU advance, dirty marks) at the two
                constant latencies returned; the core then applies the
                phase's timeline, cached per relative entry state, in
                O(1) (a cache miss replays once).  ``None`` declines:
                the window falls back to the per-run coalesced path.
            leased_phases: which compiled plan variant to interpret —
                ``True`` for lease-capped windows (ACC's cover guard
                wants short phases), ``False`` for the long structural
                windows an expiry-free controller can absorb whole.
        """
        mlp = max(1, int(mlp))
        lowered = lowered_trace(trace, self.issue_width)
        outstanding = []            # heap of completion times
        fill_time_of = {}           # block -> outstanding completion
        run_fn = access_run if COALESCE_RUNS else None
        plan = None
        if phase_quote is not None and STEADY_PHASES:
            plan = phase_plan(trace, self.issue_width, leased_phases)
            if not plan.num_phases:
                plan = None
        if plan is None:
            now = self._interpret(
                lowered.steps, start_time, outstanding, fill_time_of,
                access_fn, run_fn, mlp, issue_interval)
        else:
            now = start_time
            for phase, steps in plan.entries:
                if phase is not None:
                    horizon = now
                    if outstanding:
                        peak = max(outstanding)
                        if peak > horizon:
                            horizon = peak
                    quoted = phase_quote(phase, now, horizon,
                                         issue_interval)
                    if quoted is not None:
                        load_lat, store_lat = quoted
                        now = self._apply_phase_timeline(
                            phase, load_lat, store_lat, now,
                            outstanding, fill_time_of, mlp,
                            issue_interval)
                        continue
                now = self._interpret(
                    steps, now, outstanding, fill_time_of, access_fn,
                    run_fn, mlp, issue_interval)
        if outstanding:
            now = max(now, max(outstanding))
        self._record(lowered, now - start_time, charge_invocation)
        return now

    def _apply_phase_timeline(self, phase, load_lat, store_lat, now,
                              outstanding, fill_time_of, mlp, interval):
        """Apply one accepted phase's cached timeline; returns ``now``.

        Retire fills that have arrived — exactly what the per-op path's
        next access would do first — then express the surviving entry
        state relative to the clock.  Every simulator time is dyadic,
        so relative replay + rebase is bit-identical to absolute
        replay, and the timeline cache hits whenever this phase was
        ever entered with the same relative state.
        """
        heappop = heapq.heappop
        while outstanding and outstanding[0] <= now:
            heappop(outstanding)
        rel_heap = tuple(sorted(
            completion - now for completion in outstanding))
        rel_fills = ()
        if fill_time_of:
            # Only pending fills of the phase's own lines can merge;
            # older entries (<= now) can never beat a future completion.
            pending = fill_time_of.get
            items = None
            for info in phase.block_info:
                fill = pending(info[0])
                if fill is not None and fill > now:
                    if items is None:
                        items = []
                    items.append((info[0], fill - now,
                                  info[5], info[6]))
            if items is not None:
                rel_fills = tuple(items)
        timeline = phase.timeline(load_lat, store_lat, mlp, interval,
                                  rel_heap, rel_fills)
        if timeline.mlp_stall:
            self._add_mlp_stall(timeline.mlp_stall)
        if timeline.mshr_merges:
            self._add_mshr_merge(timeline.mshr_merges)
        for block, rel in timeline.fill_residue:
            fill_time_of[block] = now + rel
        # Entries at or below the exit clock would be drained before
        # they could ever matter, so the pruned exit heap (sorted
        # ascending — a valid heap) replaces the live one wholesale.
        outstanding[:] = [now + rel for rel in timeline.exit_heap]
        return now + timeline.cycles

    def _interpret(self, steps, now, outstanding, fill_time_of,
                   access_fn, run_fn, mlp, issue_interval):
        """Interpret a window of lowered steps (per-op + coalesced-run
        paths), mutating the timeline state in place; returns ``now``."""
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending_fill = fill_time_of.get
        add_mlp_stall = self._add_mlp_stall
        add_mshr_merge = self._add_mshr_merge
        for op, arg, count in steps:
            if op is None:          # fused compute chunk
                now += arg
                continue
            if count == 1:
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
                continue
            # Access run of length >= 2: serve as much of it as possible
            # through the coalesced fast path.  A declined attempt
            # expands ONE op through ``access_fn`` and retries with the
            # remainder — a run usually declines only because its first
            # op must miss (install the line) or upgrade (acquire a
            # write epoch); after that op the run is steady state and
            # the rest coalesces.  Each op is served by exactly one
            # path, so the expansion is bit-identical to the pure
            # per-op interpreter whatever the accept/decline pattern.
            remaining = count
            while remaining:
                latency = None
                if remaining > 1 and run_fn is not None:
                    horizon = now
                    if outstanding:
                        peak = max(outstanding)
                        if peak > horizon:
                            horizon = peak
                    latency = run_fn(op, remaining, now, horizon,
                                     issue_interval)
                if latency is not None:
                    # The protocol served (and accounted) the remaining
                    # ops at constant per-op latency; replay the issue
                    # timeline with heap bookkeeping only.
                    stall = 0
                    merges = 0
                    for _ in range(remaining):
                        while outstanding and outstanding[0] <= now:
                            heappop(outstanding)
                        if len(outstanding) >= mlp:
                            earliest = heappop(outstanding)
                            if earliest > now:
                                stall += earliest - now
                                now = earliest
                        completion = now + latency
                        pending = pending_fill(arg)
                        if pending is not None and pending > completion:
                            completion = pending
                            merges += 1
                        fill_time_of[arg] = completion
                        heappush(outstanding, completion)
                        now += issue_interval
                    if stall:
                        add_mlp_stall(stall)
                    if merges:
                        add_mshr_merge(merges)
                    break
                # Expand one op (ops in a run are interchangeable —
                # same kind, same line — so replaying the first op
                # preserves per-op semantics exactly).
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
                remaining -= 1
        return now

    def iter_run(self, trace, start_time, access_fn, mlp,
                 issue_interval=1, charge_invocation=True):
        """Generator form of :meth:`run`: yields the local clock after
        every memory-op issue, so a scheduler can interleave several
        invocations on one tile (pipelined execution).  The generator's
        return value is the completion time.

        Access runs are always expanded op-by-op here: between yields
        another invocation may mutate shared protocol state (evict a
        line, expire a lease), so no run guard evaluated at the start of
        a run could remain valid across its span.
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
