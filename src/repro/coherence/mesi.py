"""Directory MESI host memory system.

This is the substrate below every evaluated design: the host core's L1,
the 4 MB NUCA L2 with its directory, DRAM, and the long L1X<->L2 link.
The accelerator tile (whatever its internal organisation) appears to this
engine as a single coherence agent — exactly the paper's integration
model, where the shared L1X "appears as just another L1 agent" and
"exclusivity is maintained between the host processor tile and
accelerator tile".

Responsibilities:

* host core loads/stores (3-hop MESI, forwarded requests into the tile);
* line fetches on behalf of the tile (always granted exclusively — the
  L1X caches every block in E, mapping its states to MEI);
* tile writebacks / eviction notices (PUTX / PUTS);
* coherent oracle-DMA reads and writes at the LLC (the SCRATCH baseline);
* inclusion between the L2 and the tile (recalls on L2 evictions).

All traffic crossing the tile boundary is charged to the 6 pJ/byte
``l1x_l2`` link here, in one place, so no caller can double-count it.
"""

from ..common.config import CacheConfig
from ..common.errors import ProtocolError
from ..common.types import block_address
from ..energy import cacti
from ..interconnect.link import Link
from ..interconnect.ring import NucaRing
from ..mem.cache import SetAssocCache
from ..mem.dram import MainMemory
from .directory import HOST, TILE, Directory
from .messages import Msg, sender


class HostMemorySystem:
    """Host L1 + directory L2 + DRAM, with one accelerator-tile agent."""

    def __init__(self, config, stats):
        self.config = config
        self.stats = stats
        self.mesi_stats = stats.scope("mesi")
        host = config.host
        self.l1 = SetAssocCache(host.l1, name="host_l1")
        self.l1_stats = stats.scope("host_l1")
        l2_config = CacheConfig(
            host.l2_size_bytes, host.l2_ways, banks=host.l2_banks,
            hit_latency=host.l2_avg_latency)
        self.l2 = SetAssocCache(l2_config, name="l2")
        self.l2_stats = stats.scope("l2")
        self.directory = Directory(stats)
        self.ring = NucaRing(host.l2_banks, stats)
        self.dram = MainMemory(config.dram, stats)
        self.tile_link = Link("l1x_l2", config.link.l1x_l2_pj_per_byte,
                              stats)
        self._l1_energy = cacti.cache_access_energy_pj(host.l1)
        self._l2_energy = cacti.llc_bank_access_energy_pj(host)
        # Bound counter handles for the per-access paths (fetch_for_tile
        # and tile_writeback run once per L1X miss/eviction in every
        # cache-based design, so the L2 counters are genuinely hot).
        self._l1_hit_latency = host.l1.hit_latency
        self._add_l1_accesses = self.l1_stats.counter("accesses")
        self._add_l1_energy = self.l1_stats.counter("energy_pj")
        self._add_l1_hits = self.l1_stats.counter("hits")
        self._add_l1_misses = self.l1_stats.counter("misses")
        self._add_l2_accesses = self.l2_stats.counter("accesses")
        self._add_l2_writes = self.l2_stats.counter("writes")
        self._add_l2_energy = self.l2_stats.counter("energy_pj")
        self._add_l2_hits = self.l2_stats.counter("hits")
        self._add_l2_misses = self.l2_stats.counter("misses")
        # Prebuilt senders for the fixed tile-link messages (one per
        # call site): these fire once per L1X miss/eviction and once
        # per DMA block, where the generic send() dispatch is
        # measurable.  Bit-identical to send() by construction.
        mesi = self.mesi_stats
        link = self.tile_link
        self._send_recall = sender(link, Msg.RECALL, mesi, "sent")
        self._recv_putx = sender(link, Msg.PUTX, mesi, "recv")
        self._recv_puts = sender(link, Msg.PUTS, mesi, "recv")
        self._send_fwd_getx = sender(link, Msg.FWD_GETX, mesi, "sent")
        self._send_fwd_gets = sender(link, Msg.FWD_GETS, mesi, "sent")
        self._send_data_line = sender(link, Msg.DATA_LINE, mesi, "sent")
        self._send_dma_data_line = sender(link, Msg.DATA_LINE, mesi, "dma")
        self._send_dma_wb_data = sender(link, Msg.WB_DATA, mesi, "dma")
        #: Registered tile agents by name; the common single-tile case
        #: uses the ``tile_agent`` property (name "tile").
        self.tile_agents = {}

    @property
    def tile_agent(self):
        """The default single tile's agent (back-compat accessor)."""
        return self.tile_agents.get(TILE)

    @tile_agent.setter
    def tile_agent(self, agent):
        self.tile_agents[TILE] = agent

    def register_tile(self, name, agent):
        """Attach an additional accelerator tile as a coherence agent."""
        self.tile_agents[name] = agent

    # ------------------------------------------------------------------
    # raw array accesses (latency + energy, no coherence)
    # ------------------------------------------------------------------

    def _l1_access(self, is_store):
        self._add_l1_accesses()
        self._add_l1_energy(self._l1_energy)
        return self._l1_hit_latency

    def _l2_access(self, block, is_store=False):
        """One L2 bank access including the NUCA ring traversal."""
        self._add_l2_accesses()
        if is_store:
            self._add_l2_writes()
        self._add_l2_energy(self._l2_energy)
        return self.ring.traverse(block)

    # ------------------------------------------------------------------
    # L2 fills and inclusion
    # ------------------------------------------------------------------

    def _ensure_l2(self, block, now):
        """Make ``block`` resident in the L2; returns added latency."""
        if self.l2.contains(block):
            self._add_l2_hits()
            return 0
        self._add_l2_misses()
        latency = self.dram.access(block)
        victim = self.l2.insert(block)
        if victim is not None:
            latency += self._handle_l2_eviction(victim, now)
        return latency

    def _handle_l2_eviction(self, victim, now):
        """Evict an L2 line, recalling it from the tile if inclusion
        demands it and writing dirty data back to DRAM."""
        latency = 0
        entry = self.directory.lookup(victim.block)
        for name in sorted(self.directory.tile_sharers(victim.block)):
            # Inclusion recall: the L1X must give the line up.
            self._send_recall()
            stall, dirty = self._forward_to_tile(victim.block, now,
                                                 is_store=True,
                                                 tile=name)
            latency += stall
            victim.dirty = victim.dirty or dirty
        if entry is not None and entry.cached_by(HOST):
            host_line = self.l1.invalidate(victim.block)
            if host_line is not None and host_line.dirty:
                victim.dirty = True
            self.mesi_stats.add("inclusion_l1_invalidations")
        self.directory.drop(victim.block)
        if victim.dirty:
            latency += self.dram.access(victim.block, is_store=True)
            self.l2_stats.add("dirty_evictions")
        return latency

    def _forward_to_tile(self, block, now, is_store, tile=TILE):
        """Forward a request into one tile; returns (latency, dirty)."""
        agent = self.tile_agents.get(tile)
        if agent is None:
            raise ProtocolError(
                "directory names {!r} as a sharer but no such tile "
                "agent is registered".format(tile),
                agent=tile, block=block, invariant="registered-agent")
        self.mesi_stats.add("fwd_to_tile")
        stall, dirty = agent.handle_forwarded_request(block, now, is_store)
        # The tile answers with an eviction notice (+ data when dirty).
        if dirty:
            self._recv_putx()
        else:
            self._recv_puts()
        entry = self.directory.entry(block)
        entry.remove(tile)
        if dirty:
            stall += self._l2_access(block, is_store=True)
        return stall, dirty

    def _forward_to_all_tiles(self, block, now, is_store, exclude=None):
        """Forward to every tile caching ``block``; returns latency."""
        latency = 0
        for name in sorted(self.directory.tile_sharers(block)):
            if name == exclude:
                continue
            if is_store:
                self._send_fwd_getx()
            else:
                self._send_fwd_gets()
            stall, _ = self._forward_to_tile(block, now, is_store,
                                             tile=name)
            latency += stall
        return latency

    # ------------------------------------------------------------------
    # host core side
    # ------------------------------------------------------------------

    def host_load(self, paddr, now=0):
        """Host core load; returns latency in cycles."""
        block = block_address(paddr)
        latency = self._l1_access(is_store=False)
        if self.l1.contains(block):
            self._add_l1_hits()
            return latency
        self._add_l1_misses()
        latency += self._l2_access(block)
        latency += self._ensure_l2(block, now)
        latency += self._forward_to_all_tiles(block, now, is_store=False)
        entry = self.directory.entry(block)
        entry.add_sharer(HOST)
        self._l1_fill(block, dirty=False, now=now)
        return latency

    def host_store(self, paddr, now=0):
        """Host core store; returns latency in cycles."""
        block = block_address(paddr)
        latency = self._l1_access(is_store=True)
        line = self.l1.lookup(block)
        if line is not None and line.state in ("M", "E"):
            line.dirty = True
            line.state = "M"
            self._add_l1_hits()
            return latency
        self._add_l1_misses()
        latency += self._l2_access(block)
        latency += self._ensure_l2(block, now)
        latency += self._forward_to_all_tiles(block, now, is_store=True)
        entry = self.directory.entry(block)
        if line is None:
            self._l1_fill(block, dirty=True, now=now)
        else:
            # Upgrade (e.g. an S copy left behind by a DMA downgrade).
            line.dirty = True
            line.state = "M"
        entry.set_owner(HOST)
        return latency

    def _l1_fill(self, block, dirty, now):
        """Install a new line in the host L1 (caller guarantees absence)."""
        victim = self.l1.insert(block, dirty=dirty,
                                state="M" if dirty else "E")
        if victim is not None:
            self._retire_host_line(victim, now)

    def _retire_host_line(self, victim, now):
        """Handle a host L1 eviction (writeback dirty data to the L2)."""
        self.directory.entry(victim.block).remove(HOST)
        if victim.dirty:
            self._l2_access(victim.block, is_store=True)
            l2_line = self.l2.lookup(victim.block, touch=False)
            if l2_line is not None:
                l2_line.dirty = True
            self.l1_stats.add("dirty_evictions")

    # ------------------------------------------------------------------
    # accelerator tile side
    # ------------------------------------------------------------------

    def fetch_for_tile(self, pblock, now=0, tile=TILE):
        """Fetch one line exclusively for a tile's L1X.

        The request message itself is charged by the caller's epoch/GETS
        send; this method charges the L2/DRAM work and the line-sized data
        response over the tile link.  Returns latency.
        """
        block = block_address(pblock)
        latency = self._l2_access(block)
        latency += self._ensure_l2(block, now)
        # Exclusivity between tiles: recall any other tile's copy.
        latency += self._forward_to_all_tiles(block, now, is_store=True,
                                              exclude=tile)
        entry = self.directory.entry(block)
        if entry.cached_by(HOST):
            # 3-hop: invalidate/downgrade the host copy first.
            host_line = self.l1.invalidate(block)
            self.mesi_stats.add("host_invalidations_for_tile")
            if host_line is not None and host_line.dirty:
                self._l2_access(block, is_store=True)
                l2_line = self.l2.lookup(block, touch=False)
                if l2_line is not None:
                    l2_line.dirty = True
            entry.remove(HOST)
        entry.set_owner(tile)
        self._send_data_line()
        return latency

    def tile_writeback(self, pblock, dirty, now=0, tile=TILE):
        """A tile evicts a line (self-downgrade, capacity, or GTIME
        expiry after a forward).  Returns latency."""
        block = block_address(pblock)
        if dirty:
            self._recv_putx()
        else:
            self._recv_puts()
        entry = self.directory.entry(block)
        entry.remove(tile)
        latency = 0
        if dirty:
            latency += self._l2_access(block, is_store=True)
            l2_line = self.l2.lookup(block, touch=False)
            if l2_line is not None:
                l2_line.dirty = True
            else:
                # Non-inclusive corner: line left the L2 meanwhile.
                latency += self._ensure_l2(block, now)
                refetched = self.l2.lookup(block, touch=False)
                if refetched is not None:
                    refetched.dirty = True
        return latency

    # ------------------------------------------------------------------
    # oracle DMA side (SCRATCH)
    # ------------------------------------------------------------------

    def dma_read(self, pblock, now=0):
        """Coherent DMA read of one line from the LLC into a scratchpad.

        Reads the most-up-to-date copy (pulling it from the host L1 when
        dirty there) but does not install the DMA engine as a sharer.
        Returns the L2-side latency; the caller models the streaming
        transfer itself.
        """
        block = block_address(pblock)
        latency = self._l2_access(block)
        latency += self._ensure_l2(block, now)
        # Recall copies cached by accelerator tile agents so the DMA
        # stream observes their dirty data.  Legacy SCRATCH runs never
        # register a tile agent, so this is a no-op there; it matters
        # when a policy run mixes scratchpad-DMA invocations with
        # cache-based strategies on the same footprint.
        latency += self._forward_to_all_tiles(block, now, is_store=False)
        entry = self.directory.entry(block)
        if entry.cached_by(HOST):
            host_line = self.l1.lookup(block, touch=False)
            if host_line is not None and host_line.dirty:
                host_line.dirty = False
                host_line.state = "S"
                self._l2_access(block, is_store=True)
                l2_line = self.l2.lookup(block, touch=False)
                if l2_line is not None:
                    l2_line.dirty = True
                self.mesi_stats.add("dma_host_writebacks")
        self._send_dma_data_line()
        return latency

    def dma_write(self, pblock, now=0):
        """Coherent DMA write of one dirty scratchpad line into the LLC."""
        block = block_address(pblock)
        self._send_dma_wb_data()
        latency = self._l2_access(block, is_store=True)
        latency += self._ensure_l2(block, now)
        # Invalidate tile-agent copies before the DMA store lands (see
        # dma_read; a no-op unless cache strategies share the run).
        latency += self._forward_to_all_tiles(block, now, is_store=True)
        entry = self.directory.entry(block)
        if entry.cached_by(HOST):
            self.l1.invalidate(block)
            entry.remove(HOST)
            self.mesi_stats.add("dma_host_invalidations")
        l2_line = self.l2.lookup(block, touch=False)
        if l2_line is not None:
            l2_line.dirty = True
        return latency
