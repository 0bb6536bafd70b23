"""The SCRATCH baseline: per-accelerator scratchpads fed by oracle DMA.

This models the ARM/IBM-style coherent-DMA integration (Section 2.1):
each accelerator owns a small scratchpad; before each execution window
the DMA engine pushes exactly the blocks the window will read from the
LLC, and after it drains exactly the dirty blocks back.  Data shared
between accelerators ping-pongs through the host L2 — the pathological
traffic Figure 6d quantifies (DMA kB many times the working set).

The machinery lives in
:class:`repro.coherence.strategy.BoundScratchpadDma`; this class is the
static preset over it.
"""

from .preset import StrategyPresetSystem


class ScratchSystem(StrategyPresetSystem):
    """Oracle-DMA scratchpad design (the paper's normalisation baseline)."""

    name = "SCRATCH"
    strategy_key = "scratch"

    def _mirror(self, bound):
        self.scratchpads = bound.scratchpads
        self.access_models = bound.access_models
        self.cores = bound.cores
        self.dma = bound.dma
