"""Energy accounting (repro.energy.accounting)."""

import pytest

from repro.energy.accounting import COMPONENTS, EnergyBreakdown, \
    breakdown_from_stats


def test_breakdown_from_flat_counters():
    stats = {
        "l0x.energy_pj": 10.0,
        "l1x.energy_pj": 20.0,
        "l2.energy_pj": 30.0,
        "axc.compute.energy_pj": 5.0,
        "link.axc_l1x.msg_energy_pj": 1.0,
        "link.axc_l1x.data_energy_pj": 2.0,
        "link.l1x_l2.msg_energy_pj": 3.0,
        "link.l1x_l2.data_energy_pj": 4.0,
        "unrelated.counter": 999.0,
    }
    breakdown = breakdown_from_stats(stats)
    assert breakdown["local"] == 10.0
    assert breakdown["l1x"] == 20.0
    assert breakdown["l2"] == 30.0
    assert breakdown["compute"] == 5.0
    assert breakdown["link_axc_l1x_msg"] == 1.0
    assert breakdown["link_l1x_l2"] == 7.0
    assert breakdown.total_pj == pytest.approx(75.0)


def test_scratchpad_counts_as_local():
    breakdown = breakdown_from_stats({"scratchpad.energy_pj": 8.0})
    assert breakdown["local"] == 8.0


def test_nested_counters_are_summed():
    breakdown = breakdown_from_stats({
        "l0x.energy_pj": 4.0,
        "l0x.energy_pj.bank0": 0.0,  # nested form also accepted
    })
    assert breakdown["local"] == 4.0


def test_scoped_counters_fold_serially_in_snapshot_order():
    # A serial left fold drops each 1.0 against 1e16 (ties round to
    # even); a pairwise or compensated sum would keep them.
    stats = {"l1x.energy_pj": 1e16, "tile0.l1x.energy_pj": 1.0,
             "tile1.l1x.energy_pj": 1.0}
    assert repr(breakdown_from_stats(stats)["l1x"]) == repr(1e16)
    assert repr(1e16 + (1.0 + 1.0)) != repr(1e16)

    import random
    rng = random.Random(42)
    for _ in range(50):
        stats = {"l2.energy_pj": rng.uniform(-1e6, 1e6)}
        expected = stats["l2.energy_pj"]
        for tile in range(rng.randrange(1, 64)):
            amount = rng.uniform(-1e3, 1e3)
            stats["tile{}.l2.energy_pj".format(tile)] = amount
            expected += amount
        assert repr(breakdown_from_stats(stats)["l2"]) == repr(expected)


def test_cache_to_compute_ratio():
    breakdown = EnergyBreakdown({"compute": 10.0, "l1x": 25.0})
    assert breakdown.cache_to_compute_ratio() == pytest.approx(2.5)
    assert breakdown.cache_pj == 25.0


def test_zero_compute_gives_infinite_ratio():
    breakdown = EnergyBreakdown({"l1x": 5.0})
    assert breakdown.cache_to_compute_ratio() == float("inf")


def test_link_total():
    breakdown = EnergyBreakdown({
        "link_axc_l1x_msg": 1.0, "link_fwd": 2.0, "l2": 4.0})
    assert breakdown.link_pj == 3.0


def test_normalized_to_baseline():
    base = EnergyBreakdown({"l2": 50.0, "compute": 50.0})
    other = EnergyBreakdown({"l2": 25.0})
    norm = other.normalized_to(base)
    assert norm["l2"] == pytest.approx(0.25)


def test_normalized_to_zero_baseline_raises():
    with pytest.raises(ZeroDivisionError):
        EnergyBreakdown({"l2": 1.0}).normalized_to(EnergyBreakdown({}))


def test_component_keys_are_known():
    breakdown = breakdown_from_stats({})
    assert set(breakdown.components) == set(COMPONENTS)
