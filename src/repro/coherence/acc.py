"""The ACC (ACcelerator Coherence) protocol — FUSION's tile coherence.

ACC is a timestamp/lease-based self-invalidation protocol (Section 3.2):

* Every L0X line carries a local timestamp (LTIME): the line is valid
  only while the tile clock is below its lease.  Expiry *is* the
  invalidation — no invalidation messages ever cross the tile.
* The shared L1X records, per line, the global timestamp (GTIME): the
  time by which every L0X will have self-invalidated the line.  GTIME is
  what lets the L1X answer host MESI forwards without probing any L0X.
* Stores acquire *write epochs*: the L1X locks the line until the epoch
  expires and the writeback arrives; other readers/writers stall at the
  L1X until then.
* Self-downgrade: dirty L0X lines are written back when their write
  lease expires (the hardware filters the sweep with per-set writeback
  timestamps; this model tracks dirty lines directly and charges the
  same events).
* Strict 2-hop: an L0X miss costs one request up and one data response
  down; there are no forwarded probes inside the tile.

The L1X doubles as the tile's MESI agent: it caches every block
exclusively (MEI states), translates on its miss path through the AX-TLB,
and answers directory forwards via the AX-RMAP.

FUSION-Dx extends ACC with write forwarding: a producer L0X pushes a
dirty line straight into the consumer's L0X (0.1 pJ/byte link), carrying
the existing lease — legal precisely because the L1X tracks only the
lease epoch, not which L0X holds it.
"""

from ..common.config import WritePolicy
from ..common.errors import ProtocolError
from ..common.types import AccessType, block_address
from ..common.units import LINE_SIZE
from ..energy import cacti
from ..mem.banking import BankContention
from ..mem.cache import SetAssocCache
from ..mem.rmap import AxRmap
from ..mem.tlb import AxTlb
from .lease_policy import FixedLeasePolicy
from .messages import Msg, counter_pairs as msg_counter_pairs, send, sender

#: L0X -> L1X one-way wire latency inside the tile, cycles.
TILE_LINK_LATENCY = 1

#: Hot-path constants: line alignment matches ``MemOp.block`` exactly.
_BLOCK_MASK = ~(LINE_SIZE - 1)
_STORE = AccessType.STORE


class AccL1XController:
    """The shared L1X under ACC, integrated with host MESI as an MEI agent.

    This object is the ``tile_agent`` registered with
    :class:`repro.coherence.mesi.HostMemorySystem`.
    """

    def __init__(self, config, host_mem, page_table, stats,
                 agent_name="tile"):
        self.config = config.tile.l1x
        self.tile_config = config.tile
        self.host = host_mem
        self.agent_name = agent_name
        self.stats = stats.scope("l1x")
        self._tlb_stats = stats
        self.cache = SetAssocCache(self.config, name="l1x")
        # Section 3.2: PID tags let accelerators from different
        # processes co-exist on one tile.  Each process brings its own
        # page table; the AX-TLB entries are PID-tagged (modelled as one
        # AxTlb per process sharing the lookup counters).
        self.tlbs = {page_table.pid: AxTlb(
            page_table, config.tile.tlb_entries, stats)}
        self.rmap = AxRmap(stats)
        self.banks = (BankContention(self.config.banks, occupancy=1,
                                     stats=self.stats)
                      if config.tile.model_bank_conflicts else None)
        self._read_energy = cacti.cache_access_energy_pj(self.config)
        self._write_energy = cacti.cache_access_energy_pj(
            self.config, is_store=True)
        self._add_accesses = self.stats.counter("accesses")
        self._add_energy = self.stats.counter("energy_pj")
        self._add_hits = self.stats.counter("hits")
        self._add_misses = self.stats.counter("misses")
        # One write-through update's increments, bundled.
        self._flush_write_through = self.stats.registry.flusher([
            (self.stats.qualified("accesses"), 1),
            (self.stats.qualified("energy_pj"), self._write_energy),
            (self.stats.qualified("write_through_updates"), 1),
        ])

    @property
    def tlb(self):
        """The default (single-process) AX-TLB."""
        return next(iter(self.tlbs.values()))

    def register_process(self, page_table):
        """Attach another process's page table (multi-tenant tiles)."""
        self.tlbs[page_table.pid] = AxTlb(
            page_table, self.tile_config.tlb_entries, self._tlb_stats)

    # -- energy helpers ----------------------------------------------------

    def _charge(self, is_store=False):
        self._add_accesses()
        self._add_energy(self._write_energy if is_store
                         else self._read_energy)

    # -- the ACC epoch interface (L0X side) --------------------------------

    def acquire(self, vblock, now, lease, is_write, pid=0):
        """Grant a read or write epoch on ``vblock``.

        Returns ``(latency, epoch_end)`` — the absolute time-stamp the
        data response carries; the L0X must not use the line beyond it
        (Figure 4's "T=10" annotation).  The caller (L0X controller) has
        already sent the epoch-request message; this method charges the
        L1X access, any write-epoch stall, and the miss path (AX-TLB,
        host MESI fetch).  The line-sized data response is charged by the
        caller so that the link direction split stays in one place.

        The caches are virtually indexed and PID-tagged: a resident line
        with another process's tag is a miss (and is retired first) —
        cross-process sharing is not supported (Appendix).
        """
        vblock = vblock & _BLOCK_MASK
        self._charge(is_store=is_write)
        latency = self.config.hit_latency
        if self.banks is not None:
            latency += self.banks.access(self.config.set_index(vblock),
                                         now)
        line = self.cache.lookup(vblock)
        if line is not None and line.pid != pid:
            self.stats.add("pid_conflicts")
            self.cache.invalidate(vblock)
            latency += self._retire(line, now)
            line = None
        if line is not None:
            stall = self._write_epoch_stall(line, now)
            latency += stall
            epoch_end = self._grant(line, now + stall, lease, is_write)
            self._add_hits()
            return latency, epoch_end
        self._add_misses()
        latency += self._fill(vblock, now + latency, pid)
        line = self.cache.lookup(vblock)
        epoch_end = self._grant(line, now + latency, lease, is_write)
        return latency, epoch_end

    def _write_epoch_stall(self, line, now):
        """Readers and writers stall while another AXC holds a write
        epoch whose writeback has not yet completed."""
        if line.write_epoch_end is not None and line.write_epoch_end > now:
            stall = line.write_epoch_end - now
            self.stats.add("write_epoch_stalls")
            self.stats.add("write_epoch_stall_cycles", stall)
            return stall
        return 0

    def _grant(self, line, grant_time, lease, is_write):
        """Record an epoch; returns its absolute end time-stamp."""
        epoch_end = grant_time + lease
        line.gtime = max(line.gtime or 0, epoch_end)
        if is_write:
            # Implicit lock: held until the writeback arrives.
            line.write_epoch_end = epoch_end
            self.stats.add("write_epochs")
        else:
            self.stats.add("read_epochs")
        return epoch_end

    def _fill(self, vblock, now, pid=0):
        """Bring ``vblock`` into the L1X from the host side."""
        paddr, tlb_latency = self.tlbs[pid].translate(vblock)
        pblock = block_address(paddr)
        latency = tlb_latency
        latency += self.host.fetch_for_tile(pblock, now,
                                            tile=self.agent_name)
        victim = self.cache.insert(vblock, state="E", paddr=pblock,
                                   pid=pid)
        if victim is not None:
            latency += self._retire(victim, now)
        synonym = self.rmap.record_fill(pblock, vblock)
        if synonym is not None:
            # Appendix rule: only one virtual synonym per physical block
            # may live in the tile; evict the duplicate.
            stale = self.cache.invalidate(synonym)
            if stale is not None and stale.dirty:
                latency += self.host.tile_writeback(pblock, dirty=True,
                                                    now=now,
                                                    tile=self.agent_name)
        return latency

    def _retire(self, victim, now):
        """Evict one L1X line back to the host's coherence space."""
        latency = 0
        if victim.gtime is not None and victim.gtime > now:
            # An L0X may still hold a live lease: the eviction notice is
            # stalled until GTIME guarantees self-invalidation.
            latency += victim.gtime - now
            self.stats.add("gtime_eviction_stalls")
        if victim.paddr is None:
            raise ProtocolError("L1X line without a physical address",
                                agent=self.agent_name, block=victim.block,
                                invariant="rmap-bijection")
        self.rmap.remove(victim.paddr)
        self._charge(is_store=False)  # read the line out
        latency += self.host.tile_writeback(victim.paddr, victim.dirty,
                                            now, tile=self.agent_name)
        self.stats.add("evictions")
        return latency

    def writeback_from_l0x(self, vblock, now, pid=0, epoch_end=None):
        """A self-downgrading L0X wrote a dirty line back; releases the
        write-epoch lock.  Returns the L1X-side latency.

        ``epoch_end`` identifies the epoch the data was written under
        (the writing line's lease).  The lock is only released when that
        is the epoch currently holding it: a *stale* writeback — dirty
        data from an expired epoch arriving after a newer write epoch
        was granted to another L0X — must not unlock the newer epoch,
        or two live write epochs could coexist (found by
        ``repro.check``'s swmr invariant).  ``None`` means the caller
        does not track epochs and keeps the historical always-release
        behaviour.

        If the L1X already evicted the line (in hardware the eviction
        notice stalls until this writeback; the lazy model can observe
        the writeback after the eviction — also the case when another
        process's fill displaced it), the data continues straight to
        the host — counted as a ``late_writeback``.
        """
        vblock = block_address(vblock)
        line = self.cache.lookup(vblock, touch=False)
        if line is not None and line.pid != pid:
            line = None
        if line is None:
            paddr, latency = self.tlbs[pid].translate(vblock)
            self.stats.add("late_writebacks")
            return latency + self.host.tile_writeback(
                block_address(paddr), dirty=True, now=now,
                tile=self.agent_name)
        self._charge(is_store=True)
        line.dirty = True
        if epoch_end is None or line.write_epoch_end == epoch_end:
            line.write_epoch_end = None
        else:
            self.stats.add("stale_epoch_writebacks")
        self.stats.add("l0x_writebacks")
        return self.config.hit_latency

    def write_through(self, vblock, now):
        """A write-through L0X store updates the L1X word directly."""
        line = self.cache.lookup(block_address(vblock), touch=False)
        if line is None:
            raise ProtocolError(
                "write-through to a block the L1X does not hold",
                agent=self.agent_name, block=block_address(vblock),
                invariant="write-through-residency")
        line.dirty = True
        self._flush_write_through()
        return self.config.hit_latency

    # -- host MESI integration (tile agent interface) -----------------------

    def handle_forwarded_request(self, pblock, now, is_store):
        """A directory forward (Fwd-GetS/GetX or inclusion recall) arrived.

        The AX-RMAP translates the physical block; the GTIME timestamp
        tells the L1X when every L0X lease has expired, so it responds
        without ever probing an L0X.  Returns ``(stall_cycles, dirty)``.
        """
        vblock = self.rmap.lookup(pblock)
        if vblock is None:
            # The directory filter should prevent this; tolerate the race
            # (e.g. a forward crossing our own eviction notice).
            self.stats.add("fwd_misses")
            return 0, False
        line = self.cache.lookup(vblock, touch=False)
        if line is None:
            self.stats.add("fwd_misses")
            self.rmap.remove(pblock)
            return 0, False
        stall = 0
        if line.gtime is not None and line.gtime > now:
            stall = line.gtime - now
            self.stats.add("fwd_gtime_stalls")
            self.stats.add("fwd_gtime_stall_cycles", stall)
        self._charge(is_store=False)
        self.cache.invalidate(vblock)
        self.rmap.remove(pblock)
        self.stats.add("fwd_evictions")
        return stall, line.dirty


class AccL0XController:
    """One accelerator's private L0X under ACC."""

    def __init__(self, axc_id, config, l1x, axc_link, fwd_link, stats,
                 lease_policy=None):
        self.axc_id = axc_id
        self.config = config.tile.l0x
        self.l1x = l1x
        self.axc_link = axc_link
        self.fwd_link = fwd_link
        self.stats = stats.scope("l0x.axc{}".format(axc_id))
        self.shared_stats = stats.scope("l0x")
        self.cache = SetAssocCache(self.config,
                                   name="l0x{}".format(axc_id))
        self.lease_policy = lease_policy or FixedLeasePolicy()
        #: Owning process: every L0X serves one process (the paper's
        #: PID tags live in the shared structures; a private L0X is
        #: flushed across context switches anyway).
        self.pid = 0
        self._read_energy = cacti.cache_access_energy_pj(self.config)
        self._write_energy = cacti.cache_access_energy_pj(
            self.config, is_store=True)
        self._write_through = (
            self.config.write_policy is WritePolicy.WRITE_THROUGH)
        # Hot-path constants: bound counter handles, the set-index
        # shift/mask (line size and set count are powers of two) and a
        # flag that lets the access path skip the lease-policy call
        # entirely for the paper's fixed policy (``lease_for`` is the
        # identity there and ignores the set index).
        self._add_accesses = self.stats.counter("accesses")
        self._add_hits = self.stats.counter("hits")
        self._add_misses = self.stats.counter("misses")
        self._add_energy = self.shared_stats.counter("energy_pj")
        self._set_shift = self.config.line_size.bit_length() - 1
        self._set_mask = self.config.num_sets - 1
        self._fixed_lease = type(self.lease_policy) is FixedLeasePolicy
        self._hit_latency = self.config.hit_latency
        # Per-event bulk flushers (StatsRegistry.flusher): the full set
        # of increments one hit makes, applied in one call —
        # bit-identical to the unbundled handle calls by the flusher
        # contract.
        registry = self.stats.registry
        qualify = self.stats.qualified
        energy_name = self.shared_stats.qualified("energy_pj")
        hit_pairs = [(qualify("accesses"), 1),
                     (energy_name, self._read_energy),
                     (qualify("hits"), 1)]
        store_hit_pairs = [(qualify("accesses"), 1),
                           (energy_name, self._write_energy),
                           (qualify("hits"), 1)]
        self._flush_load_hit = registry.flusher(hit_pairs)
        self._flush_store_hit = registry.flusher(store_hit_pairs)
        # Write-through store hit additionally ships one WT_DATA word
        # over the tile link per store (the L1X-side counters are
        # flushed by ``write_through``).
        self._flush_store_hit_wt = registry.flusher(
            store_hit_pairs
            + msg_counter_pairs(axc_link, Msg.WT_DATA,
                                self.shared_stats, "sent")
            + [(axc_link.stats.qualified("write_flits"), 1)])
        # Bound senders for the fixed messages of the miss/writeback
        # paths (one prebuilt flusher per (link, message) call site).
        self._send_epoch_read = sender(axc_link, Msg.EPOCH_READ,
                                       self.shared_stats, "sent")
        self._send_epoch_write = sender(axc_link, Msg.EPOCH_WRITE,
                                        self.shared_stats, "sent")
        self._recv_data_line = sender(axc_link, Msg.DATA_LINE,
                                      self.shared_stats, "recv")
        self._flush_writeback = registry.flusher(
            msg_counter_pairs(axc_link, Msg.WB_DATA,
                              self.shared_stats, "sent")
            + [(axc_link.stats.qualified("write_flits"),
                self.config.line_size // 8),
               (qualify("writebacks"), 1)])
        #: Default lease for :meth:`access` calls that omit the ``lease``
        #: argument; bound by the tile before each invocation.
        self.invocation_lease = None
        #: FUSION-Dx: ``(l0x, line, now) -> bool`` called on every dirty
        #: self-downgrade; returning True means the line was forwarded to
        #: a consumer L0X instead of written back.  ``None`` disables
        #: forwarding (plain FUSION).
        self.forward_hook = None
        #: FUSION-Dx: blocks forwarded *to* this L0X that the consumer
        #: has not touched yet.  In the paper the consumer accelerator
        #: runs concurrently and drains forwards as they arrive; the
        #: sequential trace-driven model time-shifts the delivery — the
        #: first access to a pending block is an L0X hit, exactly the
        #: L1X round trip Figure 5 elides.
        self._incoming_forwards = {}

    # -- energy helpers ----------------------------------------------------

    def _charge(self, is_store=False):
        self._add_accesses()
        self._add_energy(self._write_energy if is_store
                         else self._read_energy)

    def _valid(self, line, now):
        """ACC validity check: the lease is the invalidation."""
        return line is not None and line.lease is not None and \
            line.lease > now

    # -- the accelerator-facing access path ---------------------------------

    def access(self, op, now, lease=None):
        """Serve one accelerator memory operation; returns latency.

        ``lease`` is the function's configured lease; the controller's
        lease policy (fixed by default, adaptive as an extension) may
        scale it per cache set.  When omitted it defaults to
        :attr:`invocation_lease`, which the tile binds before each
        invocation so the core can call this method directly (no
        per-op closure frame).

        This is the single hottest method of a FUSION simulation (one
        call per accelerator memory op), so the hit path is written
        against the precomputed constants and prebuilt flushers from
        ``__init__``.
        """
        vblock = op.block
        is_store = op.is_store
        if lease is None:
            lease = self.invocation_lease
        if not self._fixed_lease:
            lease = self.lease_policy.lease_for(
                (vblock >> self._set_shift) & self._set_mask, lease)
        latency = self._hit_latency
        # Inlined touching lookup (SetAssocCache.lookup): one dict probe
        # plus the LRU tick, without the method-call frame — this is the
        # per-op bottleneck of every FUSION run.
        cache = self.cache
        line = cache._lines.get(vblock)
        if line is not None:
            cache._use_clock = clock = cache._use_clock + 1
            line.last_use = clock
        if line is not None and line.lease is not None and \
                line.lease > now:
            if not is_store:
                self._flush_load_hit()
                return latency
            if line.state == "W":
                if not self._write_through:
                    line.dirty = True
                    self._flush_store_hit()
                    return latency
                self._flush_store_hit_wt()
                return latency + TILE_LINK_LATENCY + \
                    self.l1x.write_through(vblock, now)
            # Upgrade: a read lease does not permit writes.
            self._add_accesses()
            self._add_energy(self._write_energy)
            latency += self._upgrade(line, now + latency, lease)
            latency += self._record_store(line, now + latency)
            self._add_hits()
            return latency
        self._add_accesses()
        self._add_energy(self._write_energy if is_store
                         else self._read_energy)
        if vblock in self._incoming_forwards:
            fwd_latency, line = self._accept_forward(
                vblock, now + latency, lease)
            latency += fwd_latency
            self._add_hits()
            self.stats.add("forward_hits")
            if is_store:
                # LRU tick the legacy post-install probe made.
                self.cache.lookup(vblock)
                latency += self._record_store(line, now + latency)
            return latency
        self._add_misses()
        miss_latency, line = self._miss(vblock, now + latency, lease,
                                        is_store)
        latency += miss_latency
        if is_store:
            # LRU tick the legacy post-install probe made.
            self.cache.lookup(vblock)
            latency += self._record_store(line, now + latency)
        return latency

    def _accept_forward(self, vblock, now, lease):
        """Install a pending forwarded line; returns ``(latency, line)``.

        The lease travelled with the data — the epoch the producer
        already requested at the L1X, so GTIME still bounds it and no
        message is needed (the paper's "forwarding without informing the
        shared L1X").  When that epoch has already expired (in hardware
        the consumer overlaps the producer; the sequential trace-driven
        timeline delays it), the consumer *renews* the epoch with a
        single control message — the three data transfers forwarding
        elides (producer writeback, L1X read, line response) stay
        elided, which is where Table 5's savings come from.
        """
        lease_end = self._incoming_forwards.pop(vblock)
        latency = 0
        stale = self.cache.lookup(vblock, touch=False)
        if stale is not None:
            # An expired copy of our own may still hold dirty data from
            # an earlier epoch; it must self-downgrade like any other
            # stale line (``_miss`` does the same) — and before any
            # renewal below, because the writeback releases the L1X's
            # write-epoch lock.  Found by ``repro.check``: dropping it
            # here silently lost the dirty value.
            latency += self._self_downgrade(stale, now)
            self.cache.invalidate(vblock)
        if lease_end <= now:
            self._send_epoch_write()
            acquire_latency, lease_end = self.l1x.acquire(
                vblock, now, lease, is_write=True, pid=self.pid)
            latency += acquire_latency + 2 * TILE_LINK_LATENCY
            self.stats.add("forward_renewals")
        line, victim = self.cache.install(vblock, state="W", dirty=True,
                                          lease=lease_end, pid=self.pid)
        if victim is not None:
            latency += self._self_downgrade(victim, now)
        return latency, line

    def _drain_forward(self, vblock, now):
        """Write an unconsumed forwarded line's dirty data to the L1X."""
        lease_end = self._incoming_forwards.pop(vblock)
        send(self.axc_link, Msg.WB_DATA, self.shared_stats, "sent")
        self.axc_link.stats.add("write_flits",
                                self.config.line_size // 8)
        self.stats.add("writebacks")
        self.stats.add("unclaimed_forwards")
        return TILE_LINK_LATENCY + self.l1x.writeback_from_l0x(
            vblock, now, pid=self.pid, epoch_end=lease_end)

    def _record_store(self, line, now):
        if self._write_through:
            # Every store word travels to the L1X (Lesson 5's expensive
            # alternative, quantified in Table 4).
            send(self.axc_link, Msg.WT_DATA, self.shared_stats, "sent")
            self.axc_link.stats.add("write_flits", 1)
            return TILE_LINK_LATENCY + self.l1x.write_through(
                line.block, now)
        line.dirty = True
        return 0

    def _upgrade(self, line, now, lease):
        """Acquire a write epoch for a line held under a read lease."""
        self._send_epoch_write()
        latency, epoch_end = self.l1x.acquire(line.block, now, lease,
                                              is_write=True, pid=self.pid)
        line.state = "W"
        line.lease = epoch_end
        self.stats.add("upgrades")
        return 2 * TILE_LINK_LATENCY + latency

    def _miss(self, vblock, now, lease, is_store):
        """Fetch ``vblock`` with a fresh epoch from the shared L1X.

        Returns ``(latency, line)`` — the installed line, so the caller
        records stores into it without a redundant probe.
        """
        latency = TILE_LINK_LATENCY
        stale = self.cache.lookup(vblock, touch=False)
        if stale is not None:
            # Lease expired: self-downgrade dirty data before renewing.
            # Re-requesting an expired line is the signal that its lease
            # was too short.
            self.lease_policy.on_renewal_miss(
                self.config.set_index(vblock))
            latency += self._self_downgrade(stale, now)
            self.cache.invalidate(vblock)
        if is_store:
            self._send_epoch_write()
        else:
            self._send_epoch_read()
        acquire_latency, epoch_end = self.l1x.acquire(
            vblock, now + latency, lease, is_write=is_store, pid=self.pid)
        latency += acquire_latency
        self._recv_data_line()
        latency += TILE_LINK_LATENCY
        # The response carries the absolute epoch end granted by the
        # L1X — never a locally recomputed one, so GTIME always bounds it.
        line, victim = self.cache.install(
            vblock, state="W" if is_store else "R", lease=epoch_end,
            pid=self.pid)
        if victim is not None:
            if victim.lease is not None and victim.lease > now + latency:
                # Evicting a live-leased line: the lease over-committed.
                self.lease_policy.on_wasted_lease(
                    self.config.set_index(victim.block))
            latency += self._self_downgrade(victim, now + latency)
        return latency, line

    def _self_downgrade(self, line, now):
        """Write a dirty line back to the L1X (clean lines drop silently —
        the L1X's GTIME already bounds their lifetime).

        Under FUSION-Dx, marked producer-consumer lines are pushed to the
        consumer's L0X instead — eliding the writeback, the consumer's
        epoch request and the L1X read (Table 5's accounting).
        """
        if not line.dirty:
            return 0
        if self.forward_hook is not None and \
                self.forward_hook(self, line, now):
            return TILE_LINK_LATENCY
        self._flush_writeback()
        line.dirty = False
        return TILE_LINK_LATENCY + self.l1x.writeback_from_l0x(
            line.block, now, pid=self.pid, epoch_end=line.lease)

    # -- invocation boundaries ----------------------------------------------

    def flush_dirty(self, now):
        """Self-downgrade every dirty line (invocation end).

        The hardware does this incrementally as write leases expire,
        filtered by the per-set writeback timestamps; the aggregate event
        count and energy are identical.  Lines stay resident (clean) and
        remain usable until their leases expire.  Returns the latency of
        draining the writebacks.
        """
        latency = 0
        for line in list(self.cache.dirty_lines()):
            latency += self._self_downgrade(line, now)
        # Safety net: forwarded lines this consumer never touched still
        # carry dirty data that must reach the L1X.  The forwarding plan
        # only marks read-before-write blocks, so this is normally empty.
        for vblock in sorted(self._incoming_forwards):
            latency += self._drain_forward(vblock, now)
        return latency

    def dirty_blocks(self):
        return [line.block for line in self.cache.dirty_lines()]

    # -- FUSION-Dx write forwarding ------------------------------------------

    def forward_line(self, vblock, consumer, now, lease=None):
        """Push a resident dirty line directly into ``consumer``'s L0X.

        Returns False when the line is absent or clean.  ``lease`` is
        accepted for API symmetry but ignored: the forward carries the
        line's *already requested* epoch (see :meth:`forward_line_obj`).
        """
        line = self.cache.lookup(vblock, touch=False)
        if line is None or not line.dirty:
            return False
        self.forward_line_obj(line, consumer, now)
        return True

    def forward_line_obj(self, line, consumer, now):
        """Forward ``line`` (possibly already evicted here) to ``consumer``.

        Saves the writeback to the L1X, the consumer's epoch request and
        the L1X data response; costs one line on the cheap L0X<->L0X
        link.  The data travels with "the already requested lease
        lifetime" (Section 3.2): the producer's epoch end, which the
        L1X's GTIME already bounds — which is exactly why ACC permits
        forwarding without telling the L1X.
        """
        send(self.fwd_link, Msg.FWD_LINE, self.shared_stats, "fwd")
        self.cache.invalidate(line.block)  # at most one writer per block
        line.dirty = False
        consumer._incoming_forwards[line.block] = line.lease or now
        self.stats.add("lines_forwarded")
