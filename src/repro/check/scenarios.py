"""Scenario definitions for the coherence model checker.

A :class:`Scenario` is a *tiny concurrent program*: two or three agents
(accelerator L0Xs and optionally the host core), each with a short
per-agent script of events, over 2-4 cache lines.  The explorer supplies
the nondeterminism — it decides, at every step, whose next event runs —
so scripts stay short enough that the full interleaving space fits in a
bounded search.

Event vocabulary (per agent, executed in program order):

* ``("load", k)`` / ``("store", k)`` — one memory op on block ``k``
  (blocks live in one page; ``k`` indexes 64-byte lines).
* ``("flush",)`` — AXC invocation end: ``flush_dirty`` (ACC) or the
  shared L1X drain.  Not valid for the host.
* ``("advance", dt)`` — let ``dt`` cycles pass without an access; this
  is how scripts reach lease expiry.

Everything is an immutable tuple so failing scenarios hash, shrink and
replay deterministically.
"""

import random
from dataclasses import dataclass, replace

KINDS = ("acc", "shared", "dx")

#: Default ACC lease for checker scenarios, cycles.  Long enough that a
#: line granted after the tiny-config miss path (~60 cycles with a TLB
#: walk) is still live for the next few events; short enough that one
#: ``advance`` event expires it.
DEFAULT_LEASE = 150

#: The ``advance`` amount guaranteed to expire any lease granted before
#: the advancing event.
EXPIRE = 2 * DEFAULT_LEASE


@dataclass(frozen=True)
class Agent:
    """One agent's role and program."""

    role: str          # "axc" | "host"
    events: tuple      # tuple of event tuples

    def __post_init__(self):
        if self.role not in ("axc", "host"):
            raise ValueError("unknown agent role {!r}".format(self.role))
        for event in self.events:
            kind = event[0]
            if kind in ("load", "store"):
                if len(event) != 2 or not isinstance(event[1], int):
                    raise ValueError("bad event {!r}".format(event))
            elif kind == "advance":
                if len(event) != 2 or event[1] <= 0:
                    raise ValueError("bad event {!r}".format(event))
            elif kind == "flush":
                if self.role == "host" or len(event) != 1:
                    raise ValueError("bad event {!r}".format(event))
            else:
                raise ValueError("unknown event {!r}".format(event))


@dataclass(frozen=True)
class Scenario:
    """An immutable checker program: agents + lease + forwarding plan."""

    name: str
    kind: str               # "acc" | "shared" | "dx"
    agents: tuple           # tuple of Agent
    lease: int = DEFAULT_LEASE
    #: FUSION-Dx producer->consumer plan: ((block_index, consumer_ordinal),)
    forward_plan: tuple = ()
    description: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown scenario kind {!r}".format(self.kind))
        if self.kind != "dx" and self.forward_plan:
            raise ValueError("forward_plan is FUSION-Dx only")
        if not any(agent.role == "axc" for agent in self.agents):
            raise ValueError("a scenario needs at least one AXC agent")

    @property
    def total_events(self):
        return sum(len(agent.events) for agent in self.agents)

    @property
    def num_blocks(self):
        highest = 0
        for agent in self.agents:
            for event in agent.events:
                if event[0] in ("load", "store"):
                    highest = max(highest, event[1])
        return highest + 1

    def agent_labels(self):
        labels, ordinal = [], 0
        for agent in self.agents:
            if agent.role == "axc":
                labels.append("axc{}".format(ordinal))
                ordinal += 1
            else:
                labels.append("host")
        return labels

    def without_event(self, agent_index, event_index):
        """A copy with one event deleted (the shrinker's move)."""
        agents = list(self.agents)
        agent = agents[agent_index]
        events = agent.events[:event_index] + agent.events[event_index + 1:]
        agents[agent_index] = replace(agent, events=events)
        return replace(self, agents=tuple(agents))

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "lease": self.lease,
            "forward_plan": [list(pair) for pair in self.forward_plan],
            "agents": [{"role": agent.role,
                        "events": [list(e) for e in agent.events]}
                       for agent in self.agents],
        }


def _axc(*events):
    return Agent("axc", tuple(events))


def _host(*events):
    return Agent("host", tuple(events))


#: The curated catalog.  Script lengths stay <= 8 so a depth-8 bounded
#: exploration covers *every* interleaving of every scenario, including
#: the finalize flush — that is the acceptance bar for "zero violations".
CATALOG = (
    Scenario(
        name="acc-two-writers",
        kind="acc",
        agents=(_axc(("store", 0), ("store", 1), ("flush",)),
                _axc(("store", 0), ("load", 1), ("flush",))),
        description="Two AXCs race write epochs on one block; the "
                    "write-epoch lock must serialise them (SWMR)."),
    Scenario(
        name="acc-expiry-reload",
        kind="acc",
        agents=(_axc(("load", 0), ("advance", EXPIRE), ("load", 0)),
                _host(("store", 0))),
        description="A read lease expires while the host rewrites the "
                    "block; the reload must miss (no stale epoch use)."),
    Scenario(
        name="acc-host-mix",
        kind="acc",
        agents=(_axc(("store", 0), ("load", 2), ("flush",)),
                _axc(("load", 0),),
                _host(("load", 0), ("store", 0))),
        description="Host traffic forwarded into the tile (GTIME stall, "
                    "MEI invalidation) racing AXC epochs and a capacity "
                    "self-downgrade (blocks 0 and 2 conflict)."),
    Scenario(
        name="acc-capacity-churn",
        kind="acc",
        agents=(_axc(("store", 0), ("store", 2), ("load", 0), ("flush",)),
                _host(("load", 2),)),
        description="Same-set stores churn the 1-way L0X: every eviction "
                    "self-downgrades dirty data before the host reads it."),
    Scenario(
        name="shared-race",
        kind="shared",
        agents=(_axc(("store", 0), ("load", 1), ("flush",)),
                _axc(("store", 0), ("load", 0)),
                _host(("store", 0), ("load", 0))),
        description="All agents race one block through the MESI-agent "
                    "shared L1X; the last serialised store must win."),
    Scenario(
        name="shared-evict",
        kind="shared",
        agents=(_axc(("store", 0), ("store", 2), ("store", 4), ("flush",)),
                _host(("load", 0),)),
        description="Three same-set stores force a dirty eviction from "
                    "the 2-way shared L1X under concurrent host reads."),
    Scenario(
        name="dx-forward",
        kind="dx",
        agents=(_axc(("store", 0), ("flush",)),
                _axc(("load", 0), ("flush",))),
        forward_plan=((0, 1),),
        description="Producer->consumer write forwarding: the dirty line "
                    "travels L0X->L0X and must still reach the L1X once."),
    Scenario(
        name="dx-expired-forward",
        kind="dx",
        agents=(_axc(("store", 0), ("advance", EXPIRE), ("flush",)),
                _axc(("advance", 50), ("load", 0), ("flush",))),
        forward_plan=((0, 1),),
        description="The forwarded lease can expire before consumption; "
                    "the consumer renews the epoch (one control message) "
                    "without losing the forwarded data."),
    Scenario(
        name="dx-two-blocks",
        kind="dx",
        agents=(_axc(("store", 0), ("store", 1), ("flush",)),
                _axc(("load", 0), ("load", 1), ("flush",))),
        forward_plan=((0, 1), (1, 1)),
        description="Two forwarded blocks interleave with the consumer's "
                    "own accesses and flushes."),
)


def catalog(kinds=KINDS):
    """The curated scenarios, optionally filtered by kind."""
    return tuple(s for s in CATALOG if s.kind in kinds)


def by_name(name):
    for scenario in CATALOG:
        if scenario.name == name:
            return scenario
    raise KeyError("no scenario named {!r}".format(name))


# ---------------------------------------------------------------------------
# seeded random scenarios (the checker's fuzz dimension)
# ---------------------------------------------------------------------------

def random_scenario(kind, seed, index):
    """Generate one deterministic random scenario.

    Seeding ``random.Random`` with a string uses SHA-512, so the same
    ``(kind, seed, index)`` triple produces the same scenario in every
    process — the printed seed is a complete reproducer.
    """
    rng = random.Random("scenario:{}:{}:{}".format(kind, seed, index))
    num_axcs = rng.choice((2, 2, 3) if kind != "dx" else (2, 2))
    with_host = kind != "dx" and rng.random() < 0.6
    blocks = rng.choice((2, 3, 4))
    agents = []
    for _ in range(num_axcs):
        events = []
        for _ in range(rng.randint(2, 4)):
            roll = rng.random()
            if roll < 0.4:
                events.append(("store", rng.randrange(blocks)))
            elif roll < 0.9:
                events.append(("load", rng.randrange(blocks)))
            else:
                events.append(("advance",
                               rng.choice((40, 120, EXPIRE))))
        events.append(("flush",))
        agents.append(Agent("axc", tuple(events)))
    if with_host:
        events = []
        for _ in range(rng.randint(1, 3)):
            kind_roll = rng.random()
            if kind_roll < 0.45:
                events.append(("store", rng.randrange(blocks)))
            elif kind_roll < 0.9:
                events.append(("load", rng.randrange(blocks)))
            else:
                events.append(("advance", rng.choice((40, 120))))
        agents.append(Agent("host", tuple(events)))
    plan = ()
    if kind == "dx":
        consumers = tuple(
            (block, rng.randrange(num_axcs))
            for block in range(blocks) if rng.random() < 0.5)
        plan = consumers
    return Scenario(
        name="{}-random-{}-{}".format(kind, seed, index),
        kind=kind, agents=tuple(agents), forward_plan=plan,
        description="seeded random scenario (seed={}, index={})".format(
            seed, index))
