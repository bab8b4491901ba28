"""Tests for the method-agreement diagnostics (repro.analysis.diagnostics)."""

import math

import numpy as np
import pytest

from repro.analysis.diagnostics import check_agreement
from repro.mc.results import EstimationResult


def result(name, estimate, rel_err):
    return EstimationResult(
        method=name,
        failure_probability=estimate,
        relative_error=rel_err,
        n_first_stage=0,
        n_second_stage=1000,
    )


class TestCheckAgreement:
    def test_consistent_panel(self):
        results = {
            "A": result("A", 1.00e-5, 0.05),
            "B": result("B", 1.02e-5, 0.05),
        }
        report = check_agreement(results)
        assert report.consistent
        assert report.conflicts == []

    def test_conflicting_panel(self):
        """The Table II situation: a biased method with a confident (small)
        CI far below an accurate one."""
        results = {
            "G-C": result("G-C", 4.6e-6, 0.10),
            "G-S": result("G-S", 1.85e-5, 0.07),
        }
        report = check_agreement(results)
        assert not report.consistent
        assert ("G-C", "G-S") in report.conflicts or (
            "G-S", "G-C") in report.conflicts

    def test_recommends_largest_estimate(self):
        """Coverage bias is downward, so trust the largest estimate."""
        results = {
            "low": result("low", 5e-6, 0.05),
            "high": result("high", 2e-5, 0.05),
            "mid": result("mid", 1e-5, 0.05),
        }
        assert check_agreement(results).recommended == "high"

    def test_infinite_error_excluded_from_conflicts(self):
        results = {
            "dead": result("dead", 0.0, math.inf),
            "ok": result("ok", 1e-5, 0.05),
        }
        report = check_agreement(results)
        assert report.consistent  # cannot conflict with an unbounded CI
        assert report.recommended == "ok"

    def test_single_result_raises(self):
        with pytest.raises(ValueError, match="at least two"):
            check_agreement({"A": result("A", 1e-5, 0.05)})

    def test_summary_text(self):
        results = {
            "A": result("A", 1e-5, 0.05),
            "B": result("B", 9e-5, 0.02),
        }
        report = check_agreement(results)
        text = report.summary()
        assert "INCONSISTENT" in text
        assert "recommended: B" in text

    def test_consistent_summary_text(self):
        results = {
            "A": result("A", 1.0e-5, 0.2),
            "B": result("B", 1.1e-5, 0.2),
        }
        text = check_agreement(results).summary()
        assert "mutually consistent" in text


class TestEndToEndDiagnostic:
    def test_flags_gc_on_arc_problem(self):
        """Full pipeline: on the arc region G-C's biased estimate is
        flagged against G-S, and every flag recommends G-S.

        G-C's weights are heavy-tailed here, so one seed's verdict is a
        coin flip: over seeds 0-11 the check flags 4-5 (9-10 of 20), so
        the test asserts that rate and the direction of every flag.
        """
        from repro.analysis.experiments import compare_methods
        from repro.synthetic import AnnularArcMetric

        prob = AnnularArcMetric(4.5, 0.6, 0.9).problem()
        flagged = []
        for seed in range(12):
            results = compare_methods(
                prob, methods=("G-C", "G-S"), seed=seed,
                n_second_stage=6000, n_gibbs=300,
            )
            report = check_agreement(results)
            if not report.consistent:
                flagged.append(report.recommended)
        assert len(flagged) >= 3
        assert set(flagged) == {"G-S"}
