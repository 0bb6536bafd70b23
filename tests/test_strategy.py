"""CoherenceStrategy extraction (repro.coherence.strategy).

The four legacy systems are now thin presets over per-invocation
strategy objects; these tests pin that the extraction is exact — the
POLICY system's static selector produces RunResults bit-identical to
the legacy classes (everything but the system name) — and that the
strategy key grammar round-trips.
"""

import dataclasses

import pytest

from repro.coherence.strategy import (FusionLeaseStrategy,
                                      ScratchpadDmaStrategy,
                                      SharedL1XStrategy, make_strategy)
from repro.common.config import small_config
from repro.common.errors import ConfigError
from repro.systems import SYSTEMS
from repro.workloads.registry import build_workload

STRATEGY_OF = {
    "SCRATCH": "scratch",
    "SHARED": "shared",
    "FUSION": "fusion",
    "FUSION-Dx": "fusion-dx",
}


# -- key grammar -------------------------------------------------------------

def test_make_strategy_families():
    assert isinstance(make_strategy("scratch"), ScratchpadDmaStrategy)
    assert isinstance(make_strategy("shared"), SharedL1XStrategy)
    fusion = make_strategy("fusion")
    assert isinstance(fusion, FusionLeaseStrategy)
    assert fusion.lease is None and not fusion.forwarding
    dx = make_strategy("fusion-dx")
    assert dx.forwarding and dx.lease is None


def test_make_strategy_lease_option():
    strategy = make_strategy("fusion:lease=250")
    assert strategy.lease == 250
    assert make_strategy("fusion-dx:lease=1000").lease == 1000


def test_strategy_key_round_trips():
    for key in ("scratch", "shared", "fusion", "fusion-dx",
                "fusion:lease=250", "fusion-dx:lease=40"):
        strategy = make_strategy(key)
        assert strategy.key == key
        assert make_strategy(strategy) is strategy
        assert make_strategy(strategy.key) == strategy


def test_make_strategy_rejects_garbage():
    with pytest.raises(ConfigError, match="unknown coherence strategy"):
        make_strategy("mesi")
    with pytest.raises(ConfigError, match="takes no lease"):
        make_strategy("scratch:lease=5")
    with pytest.raises(ConfigError, match="non-integer lease"):
        make_strategy("fusion:lease=soon")
    with pytest.raises(ConfigError, match="unknown strategy option"):
        make_strategy("fusion:banks=4")
    with pytest.raises(ConfigError, match="negative lease"):
        FusionLeaseStrategy(lease=-1)


# -- preset equivalence ------------------------------------------------------

def _policy_static(key, bench, config):
    workload = build_workload(bench, "tiny")
    return SYSTEMS["POLICY"](
        config.with_policy(selector="static", static_strategy=key),
        workload).run()


@pytest.mark.parametrize("system", sorted(STRATEGY_OF))
@pytest.mark.parametrize("bench", ("fft", "susan"))
def test_static_selector_matches_legacy_system(system, bench):
    """The static selector is the legacy system, bit for bit: same
    cycles, same energy, same complete stats dict — only the reported
    system name differs."""
    config = small_config()
    legacy = SYSTEMS[system](config, build_workload(bench,
                                                    "tiny")).run()
    policy = _policy_static(STRATEGY_OF[system], bench, config)
    assert policy.system == "POLICY"
    assert dataclasses.replace(policy, system=legacy.system) == legacy


def test_lease_variant_matches_lease_override_config():
    """``fusion:lease=N`` pins the invocation-boundary lease exactly as
    the legacy per-system lease_override ablation did."""
    config = small_config()
    legacy = SYSTEMS["FUSION"](config.with_lease(125),
                               build_workload("filter", "tiny")).run()
    policy = _policy_static("fusion:lease=125", "filter", config)
    assert policy.accel_cycles == legacy.accel_cycles
    assert policy.stat("l1x.misses") == legacy.stat("l1x.misses")


def test_preset_mirrors_legacy_attributes():
    """Subclasses and tests reach into the legacy attribute names; the
    presets must keep exposing them."""
    config = small_config()
    scratch = SYSTEMS["SCRATCH"](config, build_workload("fft", "tiny"))
    assert len(scratch.scratchpads) == len(scratch.cores)
    shared = SYSTEMS["SHARED"](config, build_workload("fft", "tiny"))
    assert shared.l1x is shared._bound.l1x
    fusion = SYSTEMS["FUSION"](config, build_workload("fft", "tiny"))
    assert fusion.tile is fusion._bound.tile


def test_binder_shares_one_bound_per_family():
    from repro.coherence.strategy import StrategyBinder, bind_context
    config = small_config()
    system = SYSTEMS["POLICY"](config, build_workload("fft", "tiny"))
    binder = StrategyBinder(bind_context(system))
    short = binder.bind(make_strategy("fusion:lease=10"))
    long = binder.bind(make_strategy("fusion:lease=4000"))
    assert short is long                      # one tile, two leases
    assert binder.bind(make_strategy("scratch")) is not short
    assert set(binder.bound_families) == {"fusion", "scratch"}


def test_binder_names_extra_cache_agents_distinctly():
    from repro.coherence.strategy import StrategyBinder, bind_context
    system = SYSTEMS["POLICY"](small_config(),
                               build_workload("fft", "tiny"))
    binder = StrategyBinder(bind_context(system))
    fusion = binder.bind(make_strategy("fusion"))
    shared = binder.bind(make_strategy("shared"))
    assert fusion.tile.l1x.agent_name == "tile"
    assert shared.l1x.agent_name == "tile2"
    assert set(system.host_mem.tile_agents) == {"tile", "tile2"}
