"""Checker worlds (repro.check.world): real controllers on tiny configs."""

import pytest

from repro.check import build_world, by_name, check_quiescence, tiny_config
from repro.check.scenarios import Agent, Scenario


def run_to_completion(scenario):
    """Drive a fresh world round-robin through every agent's script."""
    world = build_world(scenario)
    violations = []
    step = 0
    while not world.done():
        enabled = world.enabled_agents()
        violations.extend(world.step(enabled[step % len(enabled)]))
        step += 1
    violations.extend(world.finalize())
    return world, violations, step


@pytest.mark.parametrize("name", ["acc-two-writers", "acc-host-mix",
                                  "shared-race", "dx-forward",
                                  "dx-expired-forward"])
def test_round_robin_run_is_clean(name):
    _, violations, _ = run_to_completion(by_name(name))
    assert violations == []


def test_tiny_config_is_actually_tiny():
    config = tiny_config()
    # Small enough that a handful of blocks exercise evictions, large
    # enough to hold a scenario's working set in the L1X.
    assert config.tile.l0x.size_bytes <= 256
    assert config.tile.l1x.size_bytes <= 512
    assert config.host.l2_size_bytes <= 4096


def test_clock_is_serialised_and_monotone():
    world = build_world(by_name("acc-two-writers"))
    stamps = [world.now]
    while not world.done():
        world.step(world.enabled_agents()[0])
        stamps.append(world.now)
    assert stamps == sorted(stamps)
    assert stamps[-1] > stamps[0]  # every event charged real latency


def test_loads_record_observations():
    scenario = Scenario(
        name="unit-observe", kind="acc",
        agents=(Agent("axc", (("store", 0), ("flush",))),
                Agent("axc", (("load", 0),))))
    world = build_world(scenario)
    # Producer runs fully first, then the consumer load must see w1.
    for agent in (0, 0, 1):
        assert world.step(agent) == []
    assert world.finalize() == []
    assert world.observations == [("axc1", 1, 0, "axc0.w1")]
    assert world.final_value(0) == "axc0.w1"


def test_final_value_without_stores_is_init():
    scenario = Scenario(
        name="unit-init", kind="acc",
        agents=(Agent("axc", (("load", 0),)),))
    world = build_world(scenario)
    world.step(0)
    world.finalize()
    assert world.observations == [("axc0", 1, 0, "init")]
    assert world.final_value(0) == "init"


def test_state_hash_is_deterministic_across_worlds():
    scenario = by_name("dx-forward")
    hashes = []
    for _ in range(2):
        world = build_world(scenario)
        world.step(0)
        world.step(1)
        hashes.append(world.state_hash())
    assert hashes[0] == hashes[1]


def test_state_hash_distinguishes_schedules():
    scenario = by_name("acc-two-writers")
    a = build_world(scenario)
    a.step(0)
    b = build_world(scenario)
    b.step(1)
    assert a.state_hash() != b.state_hash()


def test_quiescence_flags_unflushed_dirty_line():
    # No flush in the script and finalize() suppressed: the world ends
    # with axc0's store still dirty in its L0X.
    scenario = Scenario(
        name="unit-dirty-end", kind="acc",
        agents=(Agent("axc", (("store", 0),)),))
    world = build_world(scenario)
    assert world.step(0) == []
    found = check_quiescence(world)
    assert any(v.invariant in ("quiescence", "conservation")
               for v in found)


def test_shared_world_tracks_last_store():
    scenario = Scenario(
        name="unit-shared-last", kind="shared",
        agents=(Agent("axc", (("store", 0), ("flush",))),
                Agent("host", (("store", 0),))))
    world = build_world(scenario)
    for agent in (0, 1, 0):   # tile store, host store, tile flush
        assert world.step(agent) == []
    assert world.finalize() == []
    # The host's store serialised after the tile's.
    assert world.final_value(0) == "host.w1"
