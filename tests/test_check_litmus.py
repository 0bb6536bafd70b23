"""Litmus harness (repro.check.litmus): exact legal-outcome sets."""

from dataclasses import replace

import pytest

from repro.check import LITMUS_BY_NAME, LITMUS_TESTS, MUTATIONS, run_litmus


@pytest.mark.parametrize("test", LITMUS_TESTS, ids=lambda t: t.name)
def test_litmus_outcomes_match_legal_set(test):
    result = run_litmus(test)
    assert result.ok, (sorted(map(sorted, result.illegal)),
                       sorted(map(sorted, result.missing)))
    assert result.violations == ()
    assert result.interleavings > 0
    assert result.seen == test.legal


def test_suite_covers_the_paper_shapes():
    assert set(LITMUS_BY_NAME) == {
        "message-passing", "ping-pong", "producer-consumer",
        "lease-expiry-race"}


def test_outcome_formatting():
    test = LITMUS_BY_NAME["ping-pong"]
    outcome = test.outcome_of(
        observations=(("host", 2, 0, "host.w1"),),
        final_values=((0, "host.w1"),))
    assert outcome == frozenset({"host#2:b0=host.w1",
                                 "final:b0=host.w1"})


def test_exact_equality_fails_on_missing_outcome():
    """Removing a legal outcome must fail the test: a protocol change
    that *loses* behaviours is flagged like one that adds illegal ones."""
    test = LITMUS_BY_NAME["producer-consumer"]
    narrowed = replace(test,
                       legal=frozenset(list(test.legal)[:1]))
    result = run_litmus(narrowed)
    assert not result.ok
    assert result.illegal or result.missing


def test_forward_mutation_breaks_producer_consumer():
    test = LITMUS_BY_NAME["producer-consumer"]
    result = run_litmus(test, mutation=MUTATIONS["forward-keep-dirty"])
    assert not result.ok
    # Caught as a state violation (duplicated dirty data), reported
    # with the litmus result.
    assert result.violations
    assert result.violations[0].invariant in ("swmr", "conservation")


def test_lease_expiry_never_reserves_expired_epoch():
    """The checked legal set itself encodes the paper's claim: no
    outcome re-serves the first epoch's value after expiry."""
    test = LITMUS_BY_NAME["lease-expiry-race"]
    for outcome in test.legal:
        first = next(o for o in outcome if o.startswith("axc0#1"))
        second = next(o for o in outcome if o.startswith("axc0#2"))
        # If the first read already saw the host's write, the second
        # (post-expiry) read cannot travel back to init.
        if first.endswith("host.w1"):
            assert second.endswith("host.w1")
