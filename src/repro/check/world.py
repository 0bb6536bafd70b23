"""Checker worlds: the real controllers on a tiny config, instrumented.

A :class:`CheckWorld` wires up the *production* coherence controllers —
`AccL0XController`/`AccL1XController`/`HostMemorySystem` (and
`SharedL1XController` for the baseline) — exactly the way
``tests/test_property_acc.py`` and the systems layer do, but on a
deliberately tiny geometry (1-2 sets, 2-4 lines per cache) so bounded
exploration saturates the state space.

Two things make the worlds checkable:

**A global serialised clock.**  One *event* is one controller entry call
(an access, a flush, a host op).  It executes atomically at ``world.now``
and the clock then advances by the event's full latency.  The
interleaving choice — which agent's next event runs — is the only
nondeterminism, which is exactly the nondeterminism of the trace-driven
simulator this checker guards.

**A shadow data model.**  The simulator moves no data, so "no lost or
duplicated dirty value" is unobservable from the controllers alone.  The
world wraps a handful of controller methods *on the instances* (never
the classes) and threads an abstract token through every grant, fill,
writeback, forward and eviction.  Wraps are installed innermost, so a
protocol mutation layered on top (``repro.check.mutations``) corrupts
what the protocol sees while the shadow still records the truth.

``deepcopy`` of a world is deliberately unsupported: the controllers'
bound counter handles and prebuilt flushers close over the live stats
registry, so a copy would silently share state.  The explorer replays
choice prefixes from scratch instead — worlds are cheap at this size.
"""

import hashlib

from ..coherence.acc import AccL0XController, AccL1XController
from ..coherence.mesi import HostMemorySystem
from ..coherence.shared_l1 import SharedL1XController
from ..common.config import (AcceleratorTileConfig, CacheConfig, DramConfig,
                             HostConfig, SystemConfig)
from ..common.errors import ReproError
from ..common.stats import StatsRegistry
from ..common.types import AccessType, MemOp, block_address
from ..interconnect.link import Link
from ..mem.tlb import PageTable
from .invariants import (INIT, Violation, check_quiescence, check_step,
                         violation_from_exception)
from .scenarios import DEFAULT_LEASE

#: Virtual base address of checker blocks — one page holds all of them.
BLOCK_BASE = 0x40000
LINE = 64


def tiny_config():
    """The checker's geometry: every cache 1-2 sets, 2-4 lines.

    Small enough that two same-page blocks conflict (the interesting
    eviction races become reachable within a handful of events), fast
    enough that DRAM misses don't blow the clock past every lease.
    """
    return SystemConfig(
        name="check-tiny",
        host=HostConfig(
            l1=CacheConfig(256, 2, hit_latency=1),
            l2_size_bytes=1024, l2_ways=4, l2_banks=2, l2_avg_latency=4),
        tile=AcceleratorTileConfig(
            l0x=CacheConfig(128, 1, hit_latency=1, timestamp_bits=32),
            l1x=CacheConfig(256, 2, hit_latency=2, timestamp_bits=32),
            tlb_entries=4,
            default_lease=DEFAULT_LEASE),
        dram=DramConfig(latency=6, open_page_latency=4),
    )


def block_vaddr(block_index):
    return BLOCK_BASE + block_index * LINE


def build_world(scenario):
    """Build the world matching ``scenario.kind``."""
    if scenario.kind in ("acc", "dx"):
        return AccWorld(scenario)
    return SharedWorld(scenario)


class CheckWorld:
    """Base world: clock, agents, shadow value model, event driver."""

    kind = None

    def __init__(self, scenario):
        self.scenario = scenario
        self.config = tiny_config()
        self.stats = StatsRegistry()
        self.page_table = PageTable()
        self.host = HostMemorySystem(self.config, self.stats)
        self.now = 0
        self.pcs = [0] * len(scenario.agents)
        self.step_count = 0
        self.current_agent = None
        self.labels = scenario.agent_labels()
        #: AXC ordinal per agent index (None for the host agent).
        self.axc_of = {}
        ordinal = 0
        for index, agent in enumerate(scenario.agents):
            if agent.role == "axc":
                self.axc_of[index] = ordinal
                ordinal += 1
            else:
                self.axc_of[index] = None
        self.num_axcs = ordinal
        #: Ops issued per AXC ordinal (for the exact accounting check).
        self.issued = [0] * ordinal
        self._op_seq = [0] * len(scenario.agents)
        self._store_seq = [0] * len(scenario.agents)
        #: (label, per-agent op index, block_index, token) per load.
        self.observations = []
        self._violations = []
        # -- the shadow value model -------------------------------------
        self.host_value = {}     # pblock -> token (L2/DRAM coherent value)
        self.host_l1_value = {}  # pblock -> token cached in the host L1
        self.l1x_value = {}      # tile-L1X key -> token (vblock/pblock)
        self.l0x_value = {}      # (ordinal, vblock) -> token
        self.pending = {}        # (ordinal, vblock) -> dirty token owed
        #: (ordinal, vblock) -> (token, true lease) for a forwarded line
        #: sitting in the consumer's inbox, not yet accepted or drained.
        self.fwd_pending = {}
        self.shadow_lease = {}   # (ordinal, vblock) -> true epoch end
        self.final_writer = {}   # pblock -> last serialised store token
        self._build()

    # -- identity helpers ---------------------------------------------------

    def current_label(self):
        if self.current_agent is None:
            return None
        return self.labels[self.current_agent]

    def current_axc(self):
        if self.current_agent is None:
            return None
        return self.axc_of[self.current_agent]

    def pblock_of(self, block_index):
        return block_address(self.page_table.translate(
            block_vaddr(block_index)))

    def report(self, invariant, detail, **context):
        self._violations.append(Violation(
            invariant=invariant, detail=detail, time=self.now,
            agent=context.pop("agent", self.current_label()), **context))

    def _next_token(self, agent_index):
        self._store_seq[agent_index] += 1
        return "{}.w{}".format(self.labels[agent_index],
                               self._store_seq[agent_index])

    # -- scheduling interface ------------------------------------------------

    def enabled_agents(self):
        return tuple(index for index, agent in enumerate(self.scenario.agents)
                     if self.pcs[index] < len(agent.events))

    def done(self):
        return not self.enabled_agents()

    def step(self, agent_index):
        """Run ``agent_index``'s next event; returns the violations it
        (or the post-state invariant sweep) produced."""
        events = self.scenario.agents[agent_index].events
        if self.pcs[agent_index] >= len(events):
            raise IndexError("agent {} has no events left".format(
                self.labels[agent_index]))
        event = events[self.pcs[agent_index]]
        self.pcs[agent_index] += 1
        self.step_count += 1
        self.current_agent = agent_index
        try:
            self._execute(agent_index, event)
        except ReproError as exc:
            self._violations.append(violation_from_exception(self, exc))
        finally:
            self.current_agent = None
        out = self._violations + check_step(self)
        self._violations = []
        return out

    def finalize(self):
        """End-of-trace drain + quiescence sweep.

        Two flush passes: a producer's flush can push a forward into a
        consumer flushed earlier in the same pass (FUSION-Dx), and that
        forwarded dirty data must still reach the L1X.
        """
        for _ in range(2):
            for agent_index, agent in enumerate(self.scenario.agents):
                if agent.role != "axc":
                    continue
                self.current_agent = agent_index
                try:
                    self.now += self._flush(self.axc_of[agent_index])
                except ReproError as exc:
                    self._violations.append(
                        violation_from_exception(self, exc))
                finally:
                    self.current_agent = None
        out = self._violations + check_step(self) + check_quiescence(self)
        self._violations = []
        return out

    # -- event driver --------------------------------------------------------

    def _execute(self, agent_index, event):
        kind = event[0]
        if kind == "advance":
            self.now += event[1]
            return
        if kind == "flush":
            self.now += self._flush(self.axc_of[agent_index])
            return
        if self.axc_of[agent_index] is None:
            self._host_access(agent_index, kind, event[1])
        else:
            self._axc_access(agent_index, kind, event[1])

    def _host_access(self, agent_index, kind, block_index):
        paddr = self.page_table.translate(block_vaddr(block_index))
        pblock = block_address(paddr)
        self._op_seq[agent_index] += 1
        seq = self._op_seq[agent_index]
        if kind == "store":
            token = self._next_token(agent_index)
            self.now += self.host.host_store(paddr, self.now)
            # The store supersedes anything a forwarded invalidation
            # just pulled out of the tile.
            self.host_value[pblock] = token
            self.host_l1_value[pblock] = token
            self.final_writer[pblock] = token
        else:
            pre_hit = self.host.l1.contains(pblock)
            self.now += self.host.host_load(paddr, self.now)
            if pre_hit:
                observed = self.host_l1_value.get(pblock, INIT)
            else:
                observed = self.host_value.get(pblock, INIT)
                self.host_l1_value[pblock] = observed
            self.observations.append(
                (self.labels[agent_index], seq, block_index, observed))

    def _axc_access(self, agent_index, kind, block_index):
        raise NotImplementedError

    def _flush(self, ordinal):
        raise NotImplementedError

    def final_value(self, block_index):
        raise NotImplementedError

    # -- canonical state -----------------------------------------------------

    def _cache_snapshot(self, cache):
        # Sorted by LRU age: captures both content and eviction order
        # (ranks, not raw use clocks — those differ across equivalent
        # histories and would defeat pruning).
        lines = sorted(cache.lines(), key=lambda l: l.last_use)
        return tuple(
            (rank, line.block, line.state, bool(line.dirty), line.lease,
             line.gtime, line.write_epoch_end, line.paddr, line.pid)
            for rank, line in enumerate(lines))

    def _shadow_snapshot(self):
        return (
            tuple(sorted(self.pending.items())),
            tuple(sorted(self.fwd_pending.items())),
            tuple(sorted(self.shadow_lease.items())),
            tuple(sorted(self.l0x_value.items())),
            tuple(sorted(self.l1x_value.items())),
            tuple(sorted(self.host_value.items())),
            tuple(sorted(self.host_l1_value.items())),
            tuple(sorted(self.final_writer.items())),
        )

    def _host_snapshot(self):
        directory = tuple(sorted(
            (pblock, entry.owner, tuple(sorted(entry.sharers)))
            for pblock, entry in self.host.directory._entries.items()
            if not entry.is_idle))
        dram = tuple(sorted(self.host.dram._open_rows.items()))
        return (self._cache_snapshot(self.host.l1),
                self._cache_snapshot(self.host.l2), directory, dram)

    def snapshot(self):
        return (self.kind, self.now, tuple(self.pcs),
                self._tile_snapshot(), self._host_snapshot(),
                self._shadow_snapshot())

    def state_hash(self):
        """Process-stable hash of the canonical state."""
        payload = repr(self.snapshot()).encode("utf-8")
        return hashlib.md5(payload).hexdigest()[:16]

    def _tile_snapshot(self):
        raise NotImplementedError


class AccWorld(CheckWorld):
    """FUSION's tile: per-AXC L0Xs under the ACC L1X (MEI at the host).

    ``kind == "dx"`` additionally installs the FUSION-Dx forward hook
    driven by the scenario's producer->consumer plan.
    """

    def __init__(self, scenario):
        self.kind = scenario.kind
        super().__init__(scenario)

    def _build(self):
        self.l1x = AccL1XController(self.config, self.host,
                                    self.page_table, self.stats)
        self.host.tile_agent = self.l1x
        self.axc_link = Link("axc_l1x",
                             self.config.link.axc_l1x_pj_per_byte,
                             self.stats)
        self.fwd_link = Link("l0x_l0x",
                             self.config.link.l0x_l0x_pj_per_byte,
                             self.stats)
        self.l0xs = [
            AccL0XController(ordinal, self.config, self.l1x,
                             self.axc_link, self.fwd_link, self.stats)
            for ordinal in range(self.num_axcs)]
        self._install_shadow()
        if self.kind == "dx":
            plan = {block_vaddr(block): consumer
                    for block, consumer in self.scenario.forward_plan}
            world = self

            def forward_hook(l0x, line, now):
                consumer = plan.get(line.block)
                if consumer is None or consumer == l0x.axc_id:
                    return False
                l0x.forward_line_obj(line, world.l0xs[consumer], now)
                return True

            for l0x in self.l0xs:
                l0x.forward_hook = forward_hook

    # -- shadow wraps (instance-level, innermost) ----------------------------

    def _install_shadow(self):
        world = self
        l1x = self.l1x

        real_acquire = l1x.acquire

        def acquire(vblock, now, lease, is_write, pid=0):
            latency, epoch_end = real_acquire(vblock, now, lease,
                                              is_write, pid)
            ordinal = world.current_axc()
            if ordinal is not None:
                world.shadow_lease[(ordinal, vblock)] = epoch_end
            line = l1x.cache.lookup(vblock, touch=False)
            gtime = line.gtime if line is not None else None
            if gtime is None or gtime < epoch_end:
                world.report(
                    "gtime-bounds-epoch",
                    "granted epoch ends at {} but the L1X GTIME is "
                    "{}".format(epoch_end, gtime),
                    block=vblock, epoch=epoch_end)
            return latency, epoch_end

        l1x.acquire = acquire

        real_fill = l1x._fill

        def fill(vblock, now, pid=0):
            latency = real_fill(vblock, now, pid)
            line = l1x.cache.lookup(vblock, touch=False)
            if line is not None and line.paddr is not None:
                world.l1x_value[vblock] = world.host_value.get(
                    line.paddr, INIT)
            return latency

        l1x._fill = fill

        real_retire = l1x._retire

        def retire(victim, now):
            if victim.dirty and victim.paddr is not None:
                world.host_value[victim.paddr] = world.l1x_value.get(
                    victim.block, INIT)
            world.l1x_value.pop(victim.block, None)
            return real_retire(victim, now)

        l1x._retire = retire

        real_writeback = l1x.writeback_from_l0x

        def writeback_from_l0x(vblock, now, pid=0, epoch_end=None):
            vblock_aligned = block_address(vblock)
            ordinal = world.current_axc()
            token = world.pending.pop((ordinal, vblock_aligned), None)
            if token is None:
                world.report(
                    "conservation",
                    "writeback of a block with no outstanding dirty "
                    "value (duplicated data)",
                    block=vblock_aligned)
                token = world.l0x_value.get((ordinal, vblock_aligned),
                                            INIT)
            line = l1x.cache.lookup(vblock_aligned, touch=False)
            resident = line is not None and line.pid == pid
            latency = real_writeback(vblock, now, pid,
                                     epoch_end=epoch_end)
            if resident:
                world.l1x_value[vblock_aligned] = token
            else:
                # Late writeback: the data went straight to the host.
                paddr = world.page_table.translate(vblock_aligned)
                world.host_value[block_address(paddr)] = token
            return latency

        l1x.writeback_from_l0x = writeback_from_l0x

        real_forwarded = l1x.handle_forwarded_request

        def handle_forwarded_request(pblock, now, is_store):
            vblock = l1x.rmap._map.get(pblock)
            stall, dirty = real_forwarded(pblock, now, is_store)
            if dirty:
                world.host_value[pblock] = world.l1x_value.get(
                    vblock, INIT)
            if vblock is not None:
                world.l1x_value.pop(vblock, None)
            return stall, dirty

        l1x.handle_forwarded_request = handle_forwarded_request

        for producer_ordinal, l0x in enumerate(self.l0xs):
            self._wrap_forward(producer_ordinal, l0x)

    def _wrap_forward(self, producer, l0x):
        world = self
        real_forward = l0x.forward_line_obj
        real_accept = l0x._accept_forward
        real_drain = l0x._drain_forward

        def forward_line_obj(line, consumer, now):
            block = line.block
            real_forward(line, consumer, now)
            consumer_ordinal = consumer.axc_id
            token = world.pending.pop((producer, block), None)
            if token is None:
                world.report(
                    "conservation",
                    "forwarded a line with no outstanding dirty value",
                    agent="axc{}".format(producer), block=block)
                token = world.l0x_value.get((producer, block), INIT)
            # The *true* epoch the data travels with is the producer's
            # granted one, not whatever the (possibly mutated)
            # controller stamped on the line.
            carried = world.shadow_lease.get((producer, block), now)
            key = (consumer_ordinal, block)
            if key in world.fwd_pending:
                world.report(
                    "conservation",
                    "forward overwrote an unconsumed forwarded value "
                    "{!r} (lost data)".format(world.fwd_pending[key][0]),
                    agent="axc{}".format(consumer_ordinal), block=block)
            world.fwd_pending[key] = (token, carried)
            world.l0x_value.pop((producer, block), None)

        def accept_forward(vblock, now, lease):
            key = (l0x.axc_id, vblock)
            entry = world.fwd_pending.pop(key, None)
            if entry is None:
                world.report(
                    "conservation",
                    "accepted a forward the shadow model never saw",
                    agent="axc{}".format(l0x.axc_id), block=vblock)
                entry = (INIT, now)
            token, carried = entry
            # If the carried epoch is truly live it stays the line's
            # epoch; a renewal inside the real call goes through the
            # wrapped ``l1x.acquire`` and overwrites this.
            world.shadow_lease[key] = carried
            out = real_accept(vblock, now, lease)
            # The forwarded value became the consumer's own dirty line.
            world.l0x_value[key] = token
            world.pending[key] = token
            return out

        def drain_forward(vblock, now):
            key = (l0x.axc_id, vblock)
            entry = world.fwd_pending.pop(key, None)
            if entry is None:
                world.report(
                    "conservation",
                    "drained a forward the shadow model never saw",
                    agent="axc{}".format(l0x.axc_id), block=vblock)
                entry = (INIT, now)
            if key in world.pending:
                world.report(
                    "conservation",
                    "drain found the consumer's own dirty value {!r} "
                    "still outstanding".format(world.pending[key]),
                    agent="axc{}".format(l0x.axc_id), block=vblock)
            # The inner writeback wrap pops this as the value sent down.
            world.pending[key] = entry[0]
            return real_drain(vblock, now)

        l0x.forward_line_obj = forward_line_obj
        l0x._accept_forward = accept_forward
        l0x._drain_forward = drain_forward

    # -- AXC event driver ----------------------------------------------------

    def _axc_access(self, agent_index, kind, block_index):
        """One real controller access, with the stale-epoch shadow
        checks and the value model's observation."""
        ordinal = self.axc_of[agent_index]
        l0x = self.l0xs[ordinal]
        op = MemOp(AccessType.STORE if kind == "store" else AccessType.LOAD,
                   block_vaddr(block_index))
        vblock = op.block
        now = self.now
        self._op_seq[agent_index] += 1
        seq = self._op_seq[agent_index]
        self.issued[ordinal] += 1
        token = self._next_token(agent_index) if kind == "store" else None
        # Pre-classify the access the same way the controller will, so
        # the shadow observation matches the protocol's actual path.
        line = l0x.cache.lookup(vblock, touch=False)
        ctrl_hit = line is not None and line.lease is not None and \
            line.lease > now
        forward_hit = not ctrl_hit and vblock in l0x._incoming_forwards
        if ctrl_hit:
            true_end = self.shadow_lease.get((ordinal, vblock))
            if true_end is None or true_end <= now:
                self.report(
                    "stale-epoch-use",
                    "controller served a hit at t={} on an epoch that "
                    "ended at {}".format(now, true_end),
                    block=vblock, epoch=true_end)
        self.now += l0x.access(op, now, self.scenario.lease)
        if forward_hit:
            # Accepting a forward must leave the line under a live true
            # epoch — either the carried one, or a renewal granted now.
            true_end = self.shadow_lease.get((ordinal, vblock))
            if true_end is None or true_end <= now:
                self.report(
                    "stale-epoch-use",
                    "forward accepted at t={} without renewing its "
                    "expired epoch (ended {})".format(now, true_end),
                    block=vblock, epoch=true_end)
        if kind == "store":
            # A store supersedes whatever the line held (its previous
            # value never left the L0X), including a just-accepted
            # forward.
            self.l0x_value[(ordinal, vblock)] = token
            self.pending[(ordinal, vblock)] = token
        else:
            if ctrl_hit or forward_hit:
                # Hit on our own line, or on a forward the accept wrap
                # just folded into it.
                observed = self.l0x_value.get((ordinal, vblock), INIT)
            else:
                observed = self.l0x_value[(ordinal, vblock)] = \
                    self.l1x_value.get(vblock, INIT)
            self.observations.append(
                (self.labels[agent_index], seq, block_index, observed))

    def _flush(self, ordinal):
        return self.l0xs[ordinal].flush_dirty(self.now)

    def final_value(self, block_index):
        vblock = block_vaddr(block_index)
        if vblock in self.l1x_value:
            return self.l1x_value[vblock]
        return self.host_value.get(self.pblock_of(block_index), INIT)

    def _tile_snapshot(self):
        tlb_entries = tuple(sorted(self.l1x.tlb._entries))
        forwards = tuple(
            tuple(sorted(l0x._incoming_forwards.items()))
            for l0x in self.l0xs)
        return (tuple(self._cache_snapshot(l0x.cache)
                      for l0x in self.l0xs),
                self._cache_snapshot(self.l1x.cache),
                tuple(sorted(self.l1x.rmap._map.items())),
                tlb_entries, forwards)


class SharedWorld(CheckWorld):
    """The SHARED baseline: one MESI-agent L1X, no leases, no L0Xs."""

    kind = "shared"

    def _build(self):
        self.shared = SharedL1XController(self.config, self.host,
                                          self.page_table, self.stats)
        self.host.tile_agent = self.shared
        self.shared.axc_link = Link(
            "axc_l1x", self.config.link.axc_l1x_pj_per_byte, self.stats)
        self.l0xs = []  # uniform interface for the invariant suite
        self._install_shadow()

    def _install_shadow(self):
        world = self
        shared = self.shared
        host = self.host

        real_fill = shared._fill

        def fill(pblock, now):
            latency, line = real_fill(pblock, now)
            world.l1x_value[pblock] = world.host_value.get(pblock, INIT)
            return latency, line

        shared._fill = fill

        real_writeback = host.tile_writeback

        def tile_writeback(pblock, dirty, now=0, tile=None):
            # In the SHARED world every tile writeback (eviction or
            # flush PUTX) relinquishes the line, so the shadow value
            # moves down to the host.
            aligned = block_address(pblock)
            if dirty:
                world.host_value[aligned] = world.l1x_value.get(
                    aligned, INIT)
            world.l1x_value.pop(aligned, None)
            if tile is None:
                return real_writeback(pblock, dirty, now)
            return real_writeback(pblock, dirty, now, tile)

        host.tile_writeback = tile_writeback

        real_forwarded = shared.handle_forwarded_request

        def handle_forwarded_request(pblock, now, is_store):
            stall, dirty = real_forwarded(pblock, now, is_store)
            if dirty:
                world.host_value[pblock] = world.l1x_value.get(
                    pblock, INIT)
            world.l1x_value.pop(pblock, None)
            return stall, dirty

        shared.handle_forwarded_request = handle_forwarded_request

    def _axc_access(self, agent_index, kind, block_index):
        ordinal = self.axc_of[agent_index]
        vaddr = block_vaddr(block_index)
        op = MemOp(AccessType.STORE if kind == "store" else AccessType.LOAD,
                   vaddr)
        pblock = block_address(self.page_table.translate(vaddr))
        self._op_seq[agent_index] += 1
        seq = self._op_seq[agent_index]
        self.issued[ordinal] += 1
        token = self._next_token(agent_index) if kind == "store" else None
        self.now += self.shared.access(op, self.now)
        if kind == "store":
            self.l1x_value[pblock] = token
            self.final_writer[pblock] = token
        else:
            observed = self.l1x_value.get(pblock, INIT)
            self.observations.append(
                (self.labels[agent_index], seq, block_index, observed))

    def _flush(self, ordinal):
        # The shared L1X drains once, not per AXC; draining it on the
        # first AXC's turn keeps flush idempotent for the second pass.
        return self.shared.flush(self.now)

    def final_value(self, block_index):
        pblock = self.pblock_of(block_index)
        if pblock in self.l1x_value:
            return self.l1x_value[pblock]
        return self.host_value.get(pblock, INIT)

    def _tile_snapshot(self):
        return (self._cache_snapshot(self.shared.cache),)
