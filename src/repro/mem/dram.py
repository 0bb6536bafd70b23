"""Main memory model (Table 2: 4-channel, open-page, 200-cycle latency).

The model tracks the open row per channel; a hit on the open row pays the
shorter open-page latency.  Statistics feed the DRAM component of the
Figure 6a energy breakdown.
"""

from ..common.types import block_address

#: Energy per DRAM line access, pJ.  Anchored well above any on-chip
#: access so that DRAM-bound behaviour dominates when working sets
#: overflow the LLC, as in the paper's HIST workload.
DRAM_ACCESS_PJ = 2000.0


class MainMemory:
    """Open-page DRAM latency/energy model."""

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats.scope("dram")
        self._open_rows = {}

    def _channel_of(self, block):
        return (block // self.config.page_size) % self.config.channels

    def _row_of(self, block):
        return block // self.config.page_size

    def access(self, addr, is_store=False):
        """Access one line; return latency in cycles and record stats."""
        block = block_address(addr)
        channel = self._channel_of(block)
        row = self._row_of(block)
        if self._open_rows.get(channel) == row:
            latency = self.config.open_page_latency
            self.stats.add("row_hits")
        else:
            latency = self.config.latency
            self._open_rows[channel] = row
            self.stats.add("row_misses")
        self.stats.add("accesses")
        if is_store:
            self.stats.add("writes")
        else:
            self.stats.add("reads")
        self.stats.add("energy_pj", DRAM_ACCESS_PJ)
        return latency

    def reset(self):
        self._open_rows.clear()
