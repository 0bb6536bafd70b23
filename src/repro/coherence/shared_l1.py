"""The SHARED baseline's tile cache: one L1X shared by all accelerators.

This models the "at-the-core"/coprocessor-dominated designs the paper
compares against [Dyser, Zheng et al.]: every accelerator memory
operation crosses the tile switch to a banked shared L1 cache, which
participates in the host's MESI protocol as an ordinary L1 agent.  There
are no private L0Xs, no leases — just a conventional cache with higher
per-access latency and energy than a small private cache, which is
exactly the tradeoff Lessons 1-3 quantify.
"""

from ..common.types import AccessType
from ..common.units import LINE_SIZE
from ..energy import cacti
from ..mem.banking import BankContention
from ..mem.cache import SetAssocCache
from .directory import TILE
from .messages import Msg, counter_pairs as msg_counter_pairs, send

#: AXC -> shared L1X switch traversal, one way, cycles.
SWITCH_LATENCY = 1

_BLOCK_MASK = ~(LINE_SIZE - 1)
_STORE = AccessType.STORE

#: Memory-op issue interval in the SHARED design: the request flit and
#: the response flit of every access serialise on the tile switch, so an
#: accelerator cannot quite sustain one L1X access per cycle the way it can
#: against a private scratchpad/L0X.  This is the load-to-use throughput
#: penalty Lessons 1-2 attribute to shared-cache designs.
ISSUE_INTERVAL = 1.5


class SharedL1XController:
    """A MESI-participating shared L1X with no private caches below it."""

    def __init__(self, config, host_mem, page_table, stats,
                 agent_name=TILE):
        self.config = config.tile.l1x
        self.host = host_mem
        self.page_table = page_table
        #: Host-directory agent name; distinct per tile when several
        #: coherence strategies coexist in one run.
        self.agent_name = agent_name
        self.stats = stats.scope("l1x")
        self.cache = SetAssocCache(self.config, name="shared_l1x")
        self.banks = (BankContention(self.config.banks, occupancy=1,
                                     stats=self.stats)
                      if config.tile.model_bank_conflicts else None)
        self._read_energy = cacti.cache_access_energy_pj(self.config)
        self._write_energy = cacti.cache_access_energy_pj(
            self.config, is_store=True)
        # Hot-path bindings: counter handles plus the set-index shift/mask
        # (line size and set count are powers of two by config validation).
        self._add_accesses = self.stats.counter("accesses")
        self._add_energy = self.stats.counter("energy_pj")
        self._add_hits = self.stats.counter("hits")
        self._add_misses = self.stats.counter("misses")
        self._set_shift = self.config.line_size.bit_length() - 1
        self._set_mask = self.config.num_sets - 1
        self._base_latency = SWITCH_LATENCY + self.config.hit_latency
        self.axc_link = None  # attached by the system (builds flushers)

    @property
    def axc_link(self):
        return self._axc_link

    @axc_link.setter
    def axc_link(self, link):
        """Attach the tile link and prebuild the hit-path flushers.

        One hit performs a fixed set of increments (request message,
        cache access/energy/hit, word-sized response); bundling them
        into one :meth:`StatsRegistry.flusher` serves a whole access in
        a single call, bit-identical to the unbundled sequence.
        """
        self._axc_link = link
        if link is None:
            self._flush_load_hit = None
            self._flush_store_hit = None
            return
        registry = self.stats.registry
        qualify = self.stats.qualified
        self._flush_load_hit = registry.flusher(
            msg_counter_pairs(link, Msg.GETS, self.stats, "req")
            + [(qualify("accesses"), 1),
               (qualify("energy_pj"), self._read_energy),
               (qualify("hits"), 1)]
            + msg_counter_pairs(link, Msg.DATA_WORD, self.stats, "resp"))
        self._flush_store_hit = registry.flusher(
            msg_counter_pairs(link, Msg.GETX, self.stats, "req")
            + [(qualify("accesses"), 1),
               (qualify("energy_pj"), self._write_energy),
               (qualify("hits"), 1)]
            + msg_counter_pairs(link, Msg.WT_DATA, self.stats,
                                "store_data"))

    def _charge(self, is_store=False):
        self._add_accesses()
        self._add_energy(self._write_energy if is_store else
                         self._read_energy)

    def access(self, op, now):
        """Serve one accelerator operation across the tile switch.

        Every access costs a request message and a word-sized response on
        the AXC<->L1X link — the pull-based overhead the FUSION L0X
        exists to filter (Figure 6c).
        """
        is_store = op.is_store
        pblock = self.page_table.translate(op.addr) & _BLOCK_MASK
        line = self.cache.lookup(pblock)
        if line is not None and self.banks is None:
            # Steady-state hit with no bank contention modelled: one
            # prebuilt flush covers the whole request/access/response
            # increment set.
            if is_store:
                line.dirty = True
                line.state = "M"
                self._flush_store_hit()
            else:
                self._flush_load_hit()
            return self._base_latency + SWITCH_LATENCY
        send(self.axc_link, Msg.GETX if is_store else Msg.GETS,
             self.stats, "req")
        latency = self._base_latency
        if self.banks is not None:
            latency += self.banks.access(
                (pblock >> self._set_shift) & self._set_mask, now)
        self._add_accesses()
        self._add_energy(self._write_energy if is_store else
                         self._read_energy)
        if line is None:
            self._add_misses()
            fill_latency, line = self._fill(pblock, now + latency)
            latency += fill_latency
        else:
            self._add_hits()
        if is_store:
            line.dirty = True
            line.state = "M"
            send(self.axc_link, Msg.WT_DATA, self.stats, "store_data")
        else:
            send(self.axc_link, Msg.DATA_WORD, self.stats, "resp")
        return latency + SWITCH_LATENCY

    def _fill(self, pblock, now):
        """Fill ``pblock`` from the host; returns ``(latency, line)``."""
        latency = self.host.fetch_for_tile(pblock, now,
                                           tile=self.agent_name)
        line, victim = self.cache.install(pblock, state="E", paddr=pblock)
        if victim is not None:
            self._charge(is_store=False)
            latency += self.host.tile_writeback(victim.paddr, victim.dirty,
                                                now, tile=self.agent_name)
            self.stats.add("evictions")
        return latency, line

    def handle_forwarded_request(self, pblock, now, is_store):
        """Tile-agent interface: a directory forward probes the L1X
        directly (physically indexed — no RMAP or GTIME needed)."""
        line = self.cache.lookup(pblock, touch=False)
        if line is None:
            self.stats.add("fwd_misses")
            return 0, False
        self._charge(is_store=False)
        self.cache.invalidate(pblock)
        self.stats.add("fwd_evictions")
        return 0, line.dirty

    def flush(self, now):
        """Drain every dirty line back to the host (end of workload).

        The writeback is a PUTX: the directory drops the tile as a
        sharer, so the line must leave the cache too — keeping it
        resident would let a later access hit a copy the host no longer
        knows to invalidate (found by ``repro.check``'s mei-directory
        invariant)."""
        latency = 0
        for line in list(self.cache.dirty_lines()):
            self._charge(is_store=False)
            latency += self.host.tile_writeback(line.paddr, dirty=True,
                                                now=now,
                                                tile=self.agent_name)
            self.cache.invalidate(line.block)
            self.stats.add("flush_writebacks")
        return latency
