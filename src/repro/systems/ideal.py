"""IDEAL: a zero-cost memory-hierarchy upper bound.

Not one of the paper's designs — an analysis tool.  Every accelerator
memory operation completes in one cycle with zero hierarchy energy
(compute energy is still charged).  The gap between any real design and
IDEAL is exactly that design's data-movement cost, which makes IDEAL the
natural denominator for "how much of the accelerator's potential does
this hierarchy deliver?" studies (see ``examples`` and the efficiency
ablation).
"""

from ..accel.core import AxcCore
from .base import BaseSystem


class IdealSystem(BaseSystem):
    """Single-cycle, zero-energy memory: the data-movement-free bound."""

    name = "IDEAL"

    def _build(self):
        self.cores = [AxcCore(i, self.stats)
                      for i in range(self.workload.num_axcs)]

    @staticmethod
    def _free_access(op, now):
        return 1

    def _run_invocation(self, index, trace, now):
        core = self.cores[self._axc_of(trace)]
        return core.run(trace, now, self._free_access, self._mlp(trace))
