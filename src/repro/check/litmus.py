"""Litmus tests: legal-outcome checking on top of the explorer.

Where the invariant suite checks *state* properties every step, a litmus
test checks *observable behaviour*: it enumerates every interleaving of
a tiny program (no pruning — outcomes depend on observation history, not
just reachable state) and asserts the set of outcomes seen is exactly a
hand-verified legal set.

An outcome is a frozenset of strings: one ``"label#seq:bK=token"`` entry
per load the program performs (``seq`` is the agent's 1-based memory-op
index) plus one ``"final:bK=token"`` entry per block the test declares
interesting.  Tokens are the shadow model's write names (``axc0.w1`` is
the first store agent axc0 performed) or ``init`` for the pre-trace
value.

The legal sets below were derived by enumerating the correct protocol
and then argued by hand (comments on each test); the harness asserts
exact equality, so a protocol change that *removes* behaviours fails the
same way as one that adds illegal ones — both mean the model's semantics
moved and the argument must be redone.
"""

from dataclasses import dataclass

from .explorer import explore
from .scenarios import DEFAULT_LEASE, EXPIRE, Agent, Scenario


@dataclass(frozen=True)
class LitmusTest:
    """A named program plus its exact set of legal outcomes."""

    name: str
    description: str
    scenario: Scenario
    legal: frozenset       # of frozenset[str]
    final_blocks: tuple = ()

    def outcome_of(self, observations, final_values):
        parts = ["{}#{}:b{}={}".format(label, seq, block, token)
                 for label, seq, block, token in observations]
        finals = dict(final_values)
        for block in self.final_blocks:
            parts.append("final:b{}={}".format(block, finals[block]))
        return frozenset(parts)


@dataclass(frozen=True)
class LitmusResult:
    test: object
    ok: bool
    seen: frozenset
    illegal: frozenset     # observed but not legal
    missing: frozenset     # legal but never observed
    interleavings: int
    violations: tuple      # invariant violations (also fail the test)

    def to_dict(self):
        return {
            "litmus": self.test.name,
            "ok": self.ok,
            "interleavings": self.interleavings,
            "outcomes": sorted(sorted(o) for o in self.seen),
            "illegal": sorted(sorted(o) for o in self.illegal),
            "missing": sorted(sorted(o) for o in self.missing),
            "violations": [v.to_dict() for v in self.violations],
        }


def run_litmus(test, mutation=None):
    """Enumerate every interleaving of ``test`` and judge the outcomes."""
    result = explore(test.scenario, depth=test.scenario.total_events,
                     mutation=mutation, prune=False, shrink=False)
    if result.failure is not None:
        return LitmusResult(
            test=test, ok=False, seen=frozenset(),
            illegal=frozenset(), missing=frozenset(),
            interleavings=result.interleavings,
            violations=result.failure.violations)
    seen = frozenset(
        test.outcome_of(observations, final_values)
        for observations, final_values in (
            (outcome[:len(outcome) - test.scenario.num_blocks],
             outcome[len(outcome) - test.scenario.num_blocks:])
            for outcome in result.outcomes))
    illegal = seen - test.legal
    missing = test.legal - seen
    return LitmusResult(
        test=test, ok=not illegal and not missing, seen=seen,
        illegal=illegal, missing=missing,
        interleavings=result.interleavings, violations=())


def _outcomes(*outcome_lists):
    return frozenset(frozenset(outcome) for outcome in outcome_lists)


def _axc(*events):
    return Agent("axc", tuple(events))


def _host(*events):
    return Agent("host", tuple(events))


# ---------------------------------------------------------------------------
# the litmus programs
# ---------------------------------------------------------------------------

# Message passing (MP): axc0 writes data (b0) then flag (b1) and flushes;
# axc1 reads flag then data.  ACC is *not* sequentially consistent
# between flushes — writes become visible only at the self-downgrade —
# so the classic forbidden outcome (flag new, data old) IS reachable
# while both writes sit dirty in axc0's L0X.  What must hold instead is
# ACC's actual contract: after axc0's flush, a *miss* by axc1 sees both
# writes; and the final L1X values are axc0's writes.  The legal set is
# every combination EXCEPT "flag seen new but data read fresh from the
# L1X still old after the flush" — concretely, both loads read the same
# coherent L1X once axc0 flushed, so (w1, init) can only appear when
# axc1's loads raced ahead of the flush.
MP = LitmusTest(
    name="message-passing",
    description="Writes become visible atomically at the flush: after "
                "axc0's self-downgrade, axc1's misses see both writes; "
                "before it, they see neither (plus the race where the "
                "flag load precedes and the data load follows the "
                "flush).",
    scenario=Scenario(
        name="litmus-mp", kind="acc",
        agents=(_axc(("store", 0), ("store", 1), ("flush",)),
                _axc(("load", 1), ("load", 0)))),
    final_blocks=(0, 1),
    legal=_outcomes(
        # Both loads before the flush: nothing visible yet.
        ["axc1#1:b1=init", "axc1#2:b0=init",
         "final:b0=axc0.w1", "final:b1=axc0.w2"],
        # Flag load before the flush, data load after it.
        ["axc1#1:b1=init", "axc1#2:b0=axc0.w1",
         "final:b0=axc0.w1", "final:b1=axc0.w2"],
        # Both loads after the flush: both writes visible.
        ["axc1#1:b1=axc0.w2", "axc1#2:b0=axc0.w1",
         "final:b0=axc0.w1", "final:b1=axc0.w2"]),
)

# Ping-pong (AXC <-> host): axc0 writes b0 and flushes; the host then
# writes and reads it back.  MEI exclusivity means every hand-off goes
# through the directory: whichever side writes, the other side's copy
# is invalidated/recalled first, so the host's read-back sees whichever
# write serialised last before it — its own, or the tile's when the
# store+flush lands between the host's store and its load (the tile's
# fill invalidated the host's L1 copy, and the load's GetS pulls the
# tile's dirty line).  What can never happen: the read seeing a value
# older than the host's own store with nothing serialised in between.
PING_PONG = LitmusTest(
    name="ping-pong",
    description="MEI exclusivity between tile and host: each write "
                "hand-off invalidates the other side, and the host's "
                "read-back sees the last serialised write.",
    scenario=Scenario(
        name="litmus-ping-pong", kind="acc",
        agents=(_axc(("store", 0), ("flush",)),
                _host(("store", 0), ("load", 0)))),
    final_blocks=(0,),
    legal=_outcomes(
        # Host ran first; the tile's late writeback serialised last.
        ["host#2:b0=host.w1", "final:b0=axc0.w1"],
        # Tile flushed first: host's write serialised last.
        ["host#2:b0=host.w1", "final:b0=host.w1"],
        # Tile's store+flush landed between host store and host load:
        # the load's GetS pulls the tile's dirty line.
        ["host#2:b0=axc0.w1", "final:b0=axc0.w1"]),
)

# Producer -> consumer forwarding (FUSION-Dx): axc0's dirty b0 is
# forwarded into axc1's L0X at the flush.  The consumer's load sees the
# produced value iff it runs after the forward (its miss beats the
# forward otherwise); either way the produced value reaches the L1X
# exactly once.
PRODUCER_CONSUMER = LitmusTest(
    name="producer-consumer",
    description="FUSION-Dx forwarding delivers the produced value "
                "without the L1X round trip, and the dirty data still "
                "reaches the L1X exactly once.",
    scenario=Scenario(
        name="litmus-dx", kind="dx",
        agents=(_axc(("store", 0), ("flush",)),
                _axc(("load", 0), ("flush",))),
        forward_plan=((0, 1),)),
    final_blocks=(0,),
    legal=_outcomes(
        # Consumer load before the producer's flush: old value.
        ["axc1#1:b0=init", "final:b0=axc0.w1"],
        # Consumer load after the forward: produced value, from its L0X.
        ["axc1#1:b0=axc0.w1", "final:b0=axc0.w1"]),
)

# Lease-expiry race: axc0 reads b0, waits out its lease, reads again;
# the host stores b0 concurrently.  The second read happens strictly
# after the lease expired, so it can NEVER return the first epoch's
# value stale: it re-requests and sees the serialisation-order value —
# init if the host has not stored yet, the host's write if it has.
# The first read may see either, depending on the race.
LEASE_EXPIRY = LitmusTest(
    name="lease-expiry-race",
    description="Self-invalidation: after its lease expires, a reader "
                "re-requests and observes the serialised value; the "
                "expired epoch's value cannot be served again.",
    scenario=Scenario(
        name="litmus-lease-expiry", kind="acc",
        agents=(_axc(("load", 0), ("advance", EXPIRE), ("load", 0)),
                _host(("store", 0)))),
    final_blocks=(0,),
    legal=_outcomes(
        # Host store after both reads.
        ["axc0#1:b0=init", "axc0#2:b0=init", "final:b0=host.w1"],
        # Host store between the reads (or before the expiry).
        ["axc0#1:b0=init", "axc0#2:b0=host.w1", "final:b0=host.w1"],
        # Host store before the first read.
        ["axc0#1:b0=host.w1", "axc0#2:b0=host.w1",
         "final:b0=host.w1"]),
)

LITMUS_TESTS = (MP, PING_PONG, PRODUCER_CONSUMER, LEASE_EXPIRY)

LITMUS_BY_NAME = {test.name: test for test in LITMUS_TESTS}
