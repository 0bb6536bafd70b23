"""Common run skeleton shared by the four evaluated systems.

Every system executes the same three-act script the paper's Figure 1
motivates:

1. the host produces the input arrays (filling the LLC/host L1);
2. the sequential program migrates across the accelerators — one
   invocation at a time, in program order;
3. the host consumes the output arrays (``step3()`` running in
   software), incrementally pulling data back through MESI.

Systems differ only in act 2 (and in how act 3's host reads find the
data: DMA-ed back to the L2, or forwarded out of the tile).
"""

import abc

from ..common.stats import StatsRegistry
from ..coherence.mesi import HostMemorySystem
from ..host.core import HostCore
from ..mem.tlb import PageTable
from ..sim.results import RunResult
from ..workloads.characterize import function_mlp


class BaseSystem(abc.ABC):
    """One simulated system design bound to one workload."""

    #: Short system name used in figures ("SC", "SH", "FU", "FU-Dx").
    name = "base"

    def __init__(self, config, workload):
        self.config = config
        self.workload = workload
        self.stats = StatsRegistry()
        self.page_table = PageTable()
        self.host_mem = HostMemorySystem(config, self.stats)
        self.host_core = HostCore(config, self.host_mem, self.page_table,
                                  self.stats)
        self.mlp_of = function_mlp(workload)
        self._build()

    @abc.abstractmethod
    def _build(self):
        """Construct the tile-side components for this design."""

    @abc.abstractmethod
    def _run_invocation(self, index, trace, now):
        """Run one accelerated-function invocation; return its end time."""

    def run(self):
        """Execute the whole workload; returns a :class:`RunResult`."""
        now = 0
        # Act 1: the host allocates (calloc) every buffer and fills the
        # inputs, staging the working set in its LLC — identically for
        # every design, and excluded from the accelerator-region energy.
        for base, size in self.workload.array_ranges.values():
            now = self.host_core.produce(base, size, now)
        produce_snapshot = self.stats.snapshot()
        accel_start = now
        for index, trace in enumerate(self.workload.invocations):
            per_invocation_start = self.stats.snapshot()
            end = self._run_invocation(index, trace, now)
            self._record_invocation(index, trace, end - now,
                                    per_invocation_start)
            now = end
        accel_cycles = now - accel_start
        for base, size in self.workload.host_output_arrays:
            now = self.host_core.consume(base, size, now)
        return RunResult.from_system(self, accel_cycles=accel_cycles,
                                     total_cycles=now,
                                     energy_baseline=produce_snapshot)

    def _record_invocation(self, index, trace, cycles, start_snapshot):
        """Attribute cycles and energy to the function (Table 3 rows)."""
        delta = self.stats.diff(start_snapshot)
        energy = sum(value for key, value in delta.items()
                     if key.endswith("energy_pj"))
        self.stats.add("invocation.{}.cycles".format(trace.name), cycles)
        self.stats.add("invocation.{}.energy_pj".format(trace.name), energy)
        self.stats.add("invocation.{}.count".format(trace.name))

    # -- helpers for subclasses ------------------------------------------------

    def _axc_of(self, trace):
        return self.workload.axc_of(trace.name)

    def _mlp(self, trace):
        return self.mlp_of.get(trace.name, 2.0)
