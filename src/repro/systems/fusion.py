"""FUSION: the paper's proposed multi-level coherent accelerator hierarchy.

Per-accelerator private L0X caches (scratchpad-sized, write-caching) over
a banked shared L1X, kept coherent inside the tile by the timestamp-based
ACC protocol and integrated with host MESI at the L1X (MEI states,
AX-TLB on the miss path, AX-RMAP for forwarded requests).  The L0X
captures each function's locality at scratchpad-like cost (Lessons 2-3);
the L1X captures inter-function sharing without any DMA ping-pong
(Lesson 1); coherence is maintained without invalidation traffic.

The machinery lives in
:class:`repro.coherence.strategy.BoundFusionTile`; this class is the
static preset over it, and FUSION-Dx / FUSION-PIPE subclass it.
"""

from .preset import StrategyPresetSystem


class FusionSystem(StrategyPresetSystem):
    """FUSION (L0X + L1X under ACC)."""

    name = "FUSION"
    strategy_key = "fusion"

    def _mirror(self, bound):
        self.tile = bound.tile
