"""The checked-invariant library of the coherence model checker.

Each function inspects a :class:`repro.check.world.CheckWorld` *between*
events and returns :class:`Violation` records.  The checks are written to
be sound for **arbitrary** event interleavings on the real controllers —
every predicate below holds on the correct protocol for every reachable
state, so any violation is a genuine protocol bug (or an injected
mutation).  Three model facts keep them false-positive free:

* Events are serialised on one global clock: an event executes at
  ``world.now`` and the clock then advances by the event's full latency,
  *including* every stall the protocol charged.  A GTIME or write-epoch
  stall therefore always pushes ``now`` past the leases it waited out
  before the next event (and the next check) runs.
* Stalls are charged as latency while state changes are instantaneous
  (the trace-driven model's contract, see ``tests/test_property_acc.py``)
  — so GTIME-vs-epoch is only checked *at grant time*, where it is exact,
  never globally.
* An expired dirty L0X line may legally coexist with another AXC's live
  write epoch (the expired writer's data is simply awaiting its
  self-downgrade), so SWMR counts only *live* write leases.

Violation names are the contract with ``docs/protocol.md`` §7 and the
mutation self-test; change them in both places or not at all.
"""

from dataclasses import dataclass, replace

from ..coherence.directory import HOST, TILE

#: Token standing for a block's initial (pre-trace) memory contents.
INIT = "init"


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough context to act on it."""

    invariant: str
    detail: str
    agent: str = None
    block: int = None
    epoch: int = None
    time: int = None
    step: int = None

    def to_dict(self):
        out = {"invariant": self.invariant, "detail": self.detail}
        for name in ("agent", "block", "epoch", "time", "step"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def at_step(self, step):
        return replace(self, step=step)

    def __str__(self):
        parts = [self.invariant]
        if self.agent is not None:
            parts.append("agent={}".format(self.agent))
        if self.block is not None:
            parts.append("block={:#x}".format(self.block))
        if self.epoch is not None:
            parts.append("epoch={}".format(self.epoch))
        if self.time is not None:
            parts.append("t={}".format(self.time))
        if self.step is not None:
            parts.append("step={}".format(self.step))
        return "[{}] {}".format(" ".join(parts), self.detail)


def violation_from_exception(world, exc):
    """Fold a raised :class:`ReproError` into the violation stream."""
    return Violation(
        invariant="no-protocol-exception",
        detail="{}: {}".format(type(exc).__name__, exc),
        agent=getattr(exc, "agent", None) or world.current_label(),
        block=getattr(exc, "block", None),
        epoch=getattr(exc, "epoch", None),
        time=world.now)


# ---------------------------------------------------------------------------
# per-step checks
# ---------------------------------------------------------------------------

def check_step(world):
    """Run every applicable invariant against the current state."""
    out = []
    if world.kind in ("acc", "dx"):
        out.extend(check_swmr(world))
        out.extend(check_rmap_bijection(world))
        out.extend(check_mei_directory_acc(world))
        out.extend(check_accounting_acc(world))
    else:
        out.extend(check_mei_directory_shared(world))
        out.extend(check_accounting_shared(world))
    out.extend(check_host_l1_directory(world))
    return out


def check_swmr(world):
    """Single writer per epoch: at most one L0X holds a live *dirty*
    write line on any block.

    Dirty is part of the predicate because ``flush_dirty`` legally
    leaves a clean line resident in state W with its lease intact while
    the writeback releases the L1X's write-epoch lock — after which
    another AXC may open a fresh epoch.  An *active* writer (dirty data
    under a live lease) is exactly what must be exclusive: the correct
    L1X stalls a second writer until the first epoch ends, and the stall
    pushes the serialised clock past the first lease."""
    writers = {}
    for ordinal, l0x in enumerate(world.l0xs):
        for line in l0x.cache.lines():
            if line.state == "W" and line.dirty and \
                    line.lease is not None and line.lease > world.now:
                writers.setdefault(line.block, []).append(ordinal)
    out = []
    for block, holders in sorted(writers.items()):
        if len(holders) > 1:
            out.append(Violation(
                "swmr",
                "L0Xs {} all hold live write leases on the block".format(
                    holders),
                agent=",".join("axc{}".format(o) for o in holders),
                block=block, time=world.now))
    return out


def check_rmap_bijection(world):
    """AX-RMAP entries and L1X-resident physical blocks are a bijection,
    and every L1X line knows its physical address."""
    out = []
    l1x = world.l1x
    resident = {}
    for line in l1x.cache.lines():
        if line.paddr is None:
            out.append(Violation(
                "rmap-bijection", "L1X line has no physical address",
                agent="l1x", block=line.block, time=world.now))
        else:
            resident[line.paddr] = line.block
    rmap = dict(l1x.rmap._map)
    if rmap != resident:
        out.append(Violation(
            "rmap-bijection",
            "AX-RMAP maps {} but the L1X holds {}".format(
                {hex(k): hex(v) for k, v in sorted(rmap.items())},
                {hex(k): hex(v) for k, v in sorted(resident.items())}),
            agent="l1x", time=world.now))
    return out


def check_mei_directory_acc(world):
    """The L1X's MEI face agrees with the host directory: the tile is
    recorded as caching exactly the blocks the L1X holds."""
    out = []
    l1x = world.l1x
    entries = world.host.directory._entries
    for line in l1x.cache.lines():
        if line.paddr is None:
            continue  # reported by check_rmap_bijection
        entry = entries.get(line.paddr)
        if entry is None or not entry.cached_by(TILE):
            out.append(Violation(
                "mei-directory",
                "L1X holds the block but the host directory does not "
                "record the tile as caching it",
                agent=TILE, block=line.paddr, time=world.now))
    for pblock, entry in sorted(entries.items()):
        if not entry.cached_by(TILE):
            continue
        vblock = l1x.rmap._map.get(pblock)
        if vblock is None or not l1x.cache.contains(vblock):
            out.append(Violation(
                "mei-directory",
                "host directory records the tile for a block the L1X "
                "does not hold (stale sharer bit)",
                agent=TILE, block=pblock, time=world.now))
    return out


def check_mei_directory_shared(world):
    """SHARED baseline: the physically-indexed L1X is an ordinary MESI
    agent — residency must match the directory's tile records."""
    out = []
    entries = world.host.directory._entries
    cache = world.shared.cache
    for line in cache.lines():
        entry = entries.get(line.block)
        if entry is None or not entry.cached_by(TILE):
            out.append(Violation(
                "mei-directory",
                "shared L1X holds the block but the host directory does "
                "not record the tile as caching it",
                agent=TILE, block=line.block, time=world.now))
    for pblock, entry in sorted(entries.items()):
        if entry.cached_by(TILE) and not cache.contains(pblock):
            out.append(Violation(
                "mei-directory",
                "host directory records the tile for a block the shared "
                "L1X does not hold (stale sharer bit)",
                agent=TILE, block=pblock, time=world.now))
    return out


def check_host_l1_directory(world):
    """Host L1 residency and the directory's HOST records agree."""
    out = []
    entries = world.host.directory._entries
    l1 = world.host.l1
    for line in l1.lines():
        entry = entries.get(line.block)
        if entry is None or not entry.cached_by(HOST):
            out.append(Violation(
                "mei-directory",
                "host L1 holds the block but the directory does not "
                "record the host as caching it",
                agent=HOST, block=line.block, time=world.now))
    for pblock, entry in sorted(entries.items()):
        if entry.cached_by(HOST) and not l1.contains(pblock):
            out.append(Violation(
                "mei-directory",
                "directory records the host for a block its L1 does not "
                "hold (stale sharer bit)",
                agent=HOST, block=pblock, time=world.now))
    return out


def check_accounting_acc(world):
    """Exact counter identities (docs/protocol.md §6): per L0X,
    hits + misses = accesses = ops issued; at the L1X,
    hits + misses = read epochs + write epochs."""
    out = []
    stats = world.stats
    for ordinal, l0x in enumerate(world.l0xs):
        prefix = "l0x.axc{}.".format(l0x.axc_id)
        hits = stats.get(prefix + "hits")
        misses = stats.get(prefix + "misses")
        accesses = stats.get(prefix + "accesses")
        issued = world.issued[ordinal]
        if hits + misses != accesses or accesses != issued:
            out.append(Violation(
                "accounting",
                "axc{}: hits({}) + misses({}) != accesses({}) != "
                "issued({})".format(l0x.axc_id, hits, misses, accesses,
                                    issued),
                agent="axc{}".format(l0x.axc_id), time=world.now))
    epochs = stats.get("l1x.read_epochs") + stats.get("l1x.write_epochs")
    grants = stats.get("l1x.hits") + stats.get("l1x.misses")
    if epochs != grants:
        out.append(Violation(
            "accounting",
            "L1X epochs({}) != hits + misses({})".format(epochs, grants),
            agent="l1x", time=world.now))
    return out


def check_accounting_shared(world):
    """SHARED baseline: hits + misses equals the ops issued (``accesses``
    also counts eviction read-outs, so it is checked as >=)."""
    out = []
    stats = world.stats
    hits = stats.get("l1x.hits")
    misses = stats.get("l1x.misses")
    accesses = stats.get("l1x.accesses")
    issued = sum(world.issued)
    if hits + misses != issued or accesses < hits + misses:
        out.append(Violation(
            "accounting",
            "shared L1X: hits({}) + misses({}) != issued({}) or "
            "accesses({}) below them".format(hits, misses, issued,
                                             accesses),
            agent="l1x", time=world.now))
    return out


# ---------------------------------------------------------------------------
# quiescence (end of trace)
# ---------------------------------------------------------------------------

def check_quiescence(world):
    """After the finalize flush: no dirty L0X line, no pending forward,
    no un-written-back dirty token, and (SHARED) the host's value of
    every block is the last store serialised on it."""
    out = []
    if world.kind in ("acc", "dx"):
        for ordinal, l0x in enumerate(world.l0xs):
            for line in l0x.cache.dirty_lines():
                out.append(Violation(
                    "quiescence",
                    "dirty L0X line survived the finalize flush",
                    agent="axc{}".format(ordinal), block=line.block,
                    time=world.now))
            for vblock in sorted(l0x._incoming_forwards):
                out.append(Violation(
                    "quiescence",
                    "pending forward survived the finalize flush",
                    agent="axc{}".format(ordinal), block=vblock,
                    time=world.now))
    for (ordinal, vblock), token in sorted(world.pending.items()):
        out.append(Violation(
            "conservation",
            "dirty value {!r} was never written back (lost data)".format(
                token),
            agent="axc{}".format(ordinal), block=vblock, time=world.now))
    for (ordinal, vblock), (token, _lease) in sorted(
            world.fwd_pending.items()):
        out.append(Violation(
            "conservation",
            "forwarded value {!r} was never consumed or drained "
            "(lost data)".format(token),
            agent="axc{}".format(ordinal), block=vblock, time=world.now))
    if world.kind == "shared":
        for pblock, token in sorted(world.final_writer.items()):
            settled = world.l1x_value.get(
                pblock, world.host_value.get(pblock, INIT))
            if settled != token:
                out.append(Violation(
                    "conservation",
                    "last store serialised {!r} but the settled value "
                    "is {!r}".format(token, settled),
                    block=pblock, time=world.now))
    return out
