"""Seeded protocol mutations: the checker's self-test.

A model checker that has never caught a bug proves nothing.  Each
:class:`Mutation` here re-introduces one *specific, plausible* coherence
bug — a dropped writeback, a skewed timestamp, a skipped invalidation —
by wrapping controller methods on a freshly built world.  The self-test
(:func:`self_test`) then demands that bounded exploration catches every
one of them on the curated catalog.

Mutations are applied *after* the world's shadow instrumentation, i.e.
outermost: the shadow records what the protocol actually granted while
the mutation corrupts what the rest of the system sees — exactly how a
real implementation bug behaves.
"""

from dataclasses import dataclass

from ..common.types import block_address
from .explorer import explore
from .scenarios import catalog

#: Cycles added to the lease the mutated controller reports upward.
#: Large enough that any scripted ``advance`` still lands inside the
#: skewed lease, so the stale hit is reachable on every schedule.
LTIME_SKEW = 5000


@dataclass(frozen=True)
class Mutation:
    """One seeded bug: a name, the kinds it applies to, and an applier."""

    name: str
    kinds: tuple
    description: str
    expected: tuple     # invariant names allowed to catch it
    _apply: object

    def apply(self, world):
        self._apply(world)


def _drop_self_downgrade(world):
    for l0x in world.l0xs:
        l0x._self_downgrade = lambda line, now: 0


def _skew_ltime(world):
    real = world.l1x.acquire

    def acquire(vblock, now, lease, is_write, pid=0):
        latency, epoch_end = real(vblock, now, lease, is_write, pid)
        return latency, epoch_end + LTIME_SKEW

    world.l1x.acquire = acquire


def _skip_invalidation(world):
    agent = world.l1x if world.kind in ("acc", "dx") else world.shared
    agent.handle_forwarded_request = \
        lambda pblock, now, is_store: (0, False)


def _corrupt_sharer_bit(world):
    real = world.host.fetch_for_tile

    def fetch_for_tile(pblock, now=0, tile="tile"):
        latency = real(pblock, now, tile)
        entry = world.host.directory.lookup(block_address(pblock))
        if entry is not None:
            entry.sharers.discard(tile)
            if entry.owner == tile:
                entry.owner = None
        return latency

    world.host.fetch_for_tile = fetch_for_tile


def _no_gtime_update(world):
    real = world.l1x._grant

    def grant(line, grant_time, lease, is_write):
        epoch_end = real(line, grant_time, lease, is_write)
        line.gtime = grant_time
        return epoch_end

    world.l1x._grant = grant


def _drop_write_epoch_lock(world):
    real = world.l1x._grant

    def grant(line, grant_time, lease, is_write):
        epoch_end = real(line, grant_time, lease, is_write)
        line.write_epoch_end = None
        return epoch_end

    world.l1x._grant = grant


def _forward_keep_dirty(world):
    for l0x in world.l0xs:
        real = l0x.forward_line_obj

        def forward_line_obj(line, consumer, now, _l0x=l0x, _real=real):
            block, lease = line.block, line.lease
            _real(line, consumer, now)
            _l0x.cache.install(block, state="W", dirty=True,
                               lease=lease, pid=_l0x.pid)

        l0x.forward_line_obj = forward_line_obj


def _rmap_drop(world):
    rmap = world.l1x.rmap
    real = rmap.record_fill

    def record_fill(pblock, vblock):
        synonym = real(pblock, vblock)
        rmap._map.pop(pblock, None)
        return synonym

    rmap.record_fill = record_fill


_ALL = (
    Mutation(
        name="drop-self-downgrade",
        kinds=("acc", "dx"),
        description="Dirty L0X lines are never written back or "
                    "forwarded: self-downgrade becomes a no-op.",
        expected=("conservation", "quiescence"),
        _apply=_drop_self_downgrade),
    Mutation(
        name="skew-ltime",
        kinds=("acc", "dx"),
        description="The L1X reports every granted epoch as ending "
                    "{} cycles later than it does, so L0X lines "
                    "outlive their leases.".format(LTIME_SKEW),
        expected=("stale-epoch-use",),
        _apply=_skew_ltime),
    Mutation(
        name="skip-invalidation",
        kinds=("acc", "dx", "shared"),
        description="The tile ignores directory forwards: host stores "
                    "no longer invalidate the tile's copy.",
        expected=("mei-directory", "conservation"),
        _apply=_skip_invalidation),
    Mutation(
        name="corrupt-sharer-bit",
        kinds=("acc", "dx", "shared"),
        description="The directory loses the tile's sharer bit right "
                    "after every tile fill.",
        expected=("mei-directory",),
        _apply=_corrupt_sharer_bit),
    Mutation(
        name="no-gtime-update",
        kinds=("acc", "dx"),
        description="GTIME stops covering granted epochs (reset to the "
                    "grant time), so the L1X may answer forwards while "
                    "L0X leases are still live.",
        expected=("gtime-bounds-epoch",),
        _apply=_no_gtime_update),
    Mutation(
        name="drop-write-epoch-lock",
        kinds=("acc", "dx"),
        description="The L1X forgets the write-epoch lock: concurrent "
                    "write epochs are granted on one block.",
        expected=("swmr", "stale-epoch-use", "conservation"),
        _apply=_drop_write_epoch_lock),
    Mutation(
        name="forward-keep-dirty",
        kinds=("dx",),
        description="A FUSION-Dx producer keeps its dirty copy after "
                    "forwarding the line, duplicating the data.",
        expected=("swmr", "conservation"),
        _apply=_forward_keep_dirty),
    Mutation(
        name="rmap-drop",
        kinds=("acc", "dx"),
        description="The AX-RMAP forgets each fill immediately, so "
                    "directory forwards can no longer reach the line.",
        expected=("rmap-bijection",),
        _apply=_rmap_drop),
)

MUTATIONS = {mutation.name: mutation for mutation in _ALL}


def self_test(depth=None, kinds=None):
    """Verify the checker catches every mutation; returns a report dict.

    For each mutation, the catalog scenarios of its kinds are explored
    exhaustively (full script depth, so the finalize flush runs — several
    mutations only become visible there).  A mutation counts as caught
    when at least one scenario fails with one of its expected invariants.
    """
    results = []
    ok = True
    for mutation in _ALL:
        applicable = [s for s in catalog(mutation.kinds)
                      if kinds is None or s.kind in kinds]
        caught_by = None
        unexpected = None
        for scenario in applicable:
            bound = depth or scenario.total_events
            result = explore(scenario, depth=bound, mutation=mutation,
                             shrink=False)
            if result.failure is not None:
                invariant = result.failure.violations[0].invariant
                if invariant in mutation.expected:
                    caught_by = {"scenario": scenario.name,
                                 "invariant": invariant}
                    break
                unexpected = {"scenario": scenario.name,
                              "invariant": invariant}
        caught = caught_by is not None
        ok = ok and caught
        entry = {"mutation": mutation.name,
                 "description": mutation.description,
                 "expected": list(mutation.expected),
                 "caught": caught}
        if caught_by is not None:
            entry.update(caught_by)
        elif unexpected is not None:
            entry["unexpected"] = unexpected
        results.append(entry)
    return {"ok": ok, "mutations": results}
