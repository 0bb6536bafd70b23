"""repro.check — bounded coherence model checking for the real engines.

The checker drives the production controllers (``AccL0XController``,
``AccL1XController``, ``SharedL1XController``, ``HostMemorySystem``) on
tiny configurations through every interleaving of small concurrent
programs, checking protocol invariants between events and legal-outcome
sets over whole executions.  See ``docs/protocol.md`` §7 for the mapping
from the specification's prose invariants to the properties checked
here.

Layers, bottom up:

* :mod:`repro.check.scenarios` — tiny concurrent programs (curated
  catalog + seeded random generation).
* :mod:`repro.check.world` — the real controllers wired up on a tiny
  config, with a shadow data model and a serialised clock.
* :mod:`repro.check.invariants` — the properties checked between events.
* :mod:`repro.check.explorer` — exhaustive bounded DFS, seeded random
  walks, and greedy counterexample shrinking.
* :mod:`repro.check.litmus` — hand-verified legal-outcome sets.
* :mod:`repro.check.mutations` — seeded protocol bugs the checker must
  catch (its self-test).
* :mod:`repro.check.runner` — the ``fusion-sim check`` entry points.
"""

from .explorer import (ExplorationResult, Failure, InvalidSchedule,
                       RunOutcome, execute_schedule, explore,
                       random_walks, shrink_failure)
from .invariants import Violation, check_quiescence, check_step
from .litmus import LITMUS_BY_NAME, LITMUS_TESTS, LitmusTest, run_litmus
from .mutations import MUTATIONS, Mutation
from .runner import (run_check, run_self_test, summarize,
                     summarize_self_test)
from .scenarios import (CATALOG, Agent, Scenario, by_name, catalog,
                        random_scenario)
from .world import build_world, tiny_config

__all__ = [
    "Agent", "CATALOG", "ExplorationResult", "Failure",
    "InvalidSchedule", "LITMUS_BY_NAME", "LITMUS_TESTS", "LitmusTest",
    "MUTATIONS", "Mutation", "RunOutcome", "Scenario", "Violation",
    "build_world", "by_name", "catalog", "check_quiescence",
    "check_step", "execute_schedule", "explore", "random_scenario",
    "random_walks", "run_check", "run_litmus", "run_self_test",
    "shrink_failure", "summarize", "summarize_self_test", "tiny_config",
]
