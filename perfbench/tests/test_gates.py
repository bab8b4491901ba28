"""Correctness gates, error_rate accounting and the exact-count repeat check."""

import math

import pytest

from perfbench.gates import Z99, Z_GATE, Tally, reference_check

REFERENCE = {"p_ref": 2.0e-5, "rel_err_99": 0.0}


def test_error_rate_counts_failed_and_raising_units():
    tally = Tally()
    with tally.unit("passes") as unit:
        unit.require(True, "never shown")
    with tally.unit("fails a gate") as unit:
        unit.require(False, "estimate off")
        unit.require(False, "second gate of the same unit")
    with tally.unit("raises"):
        raise ValueError("boom")
    assert tally.attempted == 3
    assert tally.failed == 2
    assert tally.error_rate == pytest.approx(2 / 3)
    assert not tally.correct
    assert any("raised ValueError: boom" in p for p in tally.problems)
    assert sum("fails a gate" in p for p in tally.problems) == 2


def test_all_units_passing_is_correct_with_zero_error_rate():
    tally = Tally()
    for _ in range(4):
        with tally.unit("job") as unit:
            unit.require(True, "")
    assert (tally.attempted, tally.failed, tally.error_rate) == (4, 0, 0.0)
    assert tally.correct


def test_repeat_check_flags_nondeterminism_without_counting_a_unit():
    tally = Tally()
    tally.check_repeats("w", [{"sims": 10, "calls": 3}, {"sims": 10, "calls": 3}])
    assert tally.correct
    tally.check_repeats("w", [{"sims": 10}, {"sims": 11}])
    assert not tally.correct and tally.failed == 0
    assert "nondeterminism in w: sims" in tally.faults[0]


def test_repeat_check_compares_traced_only_counts_among_traced_reps():
    tally = Tally()
    tally.check_repeats(
        "w", [{"sims": 5}, {"sims": 5, "newton": 9}, {"sims": 5, "newton": 9}]
    )
    assert tally.correct
    tally.check_repeats(
        "w", [{"sims": 5}, {"sims": 5, "newton": 9}, {"sims": 5, "newton": 8}]
    )
    assert len(tally.faults) == 1


def test_reference_check_tolerance_combines_both_cis():
    reference = {"p_ref": 2.0e-5, "rel_err_99": 0.08}
    ok, log_err, tol = reference_check(2.0e-5, 0.06, reference)
    assert ok and log_err == 0.0
    assert tol == pytest.approx(Z_GATE * math.hypot(0.06, 0.08) / Z99)


def test_reference_check_rejects_a_biased_estimate():
    # G-C on the iread problem lands near 0.24x the golden value.
    ok, log_err, _ = reference_check(0.24 * 2.0e-5, 0.05, REFERENCE)
    assert not ok and log_err == pytest.approx(-math.log(0.24))


def test_reference_check_accepts_noise_inside_the_interval():
    ok, _, _ = reference_check(2.0e-5 * 1.05, 0.05, REFERENCE)
    assert ok


@pytest.mark.parametrize("estimate, rel", [(0.0, 0.1), (2e-5, math.inf),
                                           (math.nan, 0.1)])
def test_reference_check_rejects_degenerate_estimates(estimate, rel):
    ok, _, _ = reference_check(estimate, rel, REFERENCE)
    assert not ok
