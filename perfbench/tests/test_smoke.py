"""Tiny-budget smoke of each workload, untraced and traced.

Budgets are far below the benchmark's, so accuracy gates may fail here;
what must hold is the shape of the result, exact-count repeatability and
a waterfall that closes on the wall clock.
"""

import pytest

from perfbench import run
from perfbench.gates import Tally
from perfbench.layers import EXACT, UNITS
from perfbench.workloads import GoldenIread, WORKLOADS


def shrink(monkeypatch, cls):
    for attr, value in cls.tiny.items():
        monkeypatch.setattr(cls, attr, value)


@pytest.fixture(params=list(WORKLOADS.values()), ids=list(WORKLOADS))
def workload(request, monkeypatch, tmp_path):
    shrink(monkeypatch, request.param)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    return request.param(seed=7, work_dir=tmp_path)


def only_gate_failures(tally):
    return not any("raised" in problem for problem in tally.problems)


def test_untraced_run_reports_every_end_to_end_metric(workload):
    tally = Tally()
    report = run.run_untraced(workload, tally, seconds=0.0)
    assert set(report["metrics"]) == set(run.E2E_UNITS)
    assert all(value > 0 for value in report["metrics"].values())
    assert len(report["setup_samples_s"]) == 2
    assert tally.attempted >= 1
    assert only_gate_failures(tally), tally.problems
    assert not tally.faults


def test_traced_run_derives_layers_and_a_closing_waterfall(workload):
    tally = Tally()
    report = run.run_traced(workload, tally)
    assert set(UNITS) - {"error_rate"} <= set(report["metrics"])
    assert report["metrics"]["sram.calls"] > 0
    assert report["waterfall"]["closure_error"] < 1e-6
    assert "sram" in report["waterfall"]["modules"]
    assert only_gate_failures(tally), tally.problems
    assert not tally.faults, tally.faults  # exact counts repeated
    baseline, first, second = report["counts"]
    assert first == second and first["sims"] == baseline["sims"]
    assert report["unrepeated_counts"] == []


def test_traced_run_flags_counts_it_could_not_repeat(monkeypatch, tmp_path):
    shrink(monkeypatch, GoldenIread)
    monkeypatch.setattr(run, "TRACE_BUDGET_S", 0.0)
    report = run.run_traced(GoldenIread(seed=3, work_dir=tmp_path), Tally())
    assert len(report["traced_wall_s"]) == 1
    assert report["unrepeated_counts"] == list(EXACT)


def test_golden_iread_pool_workers_ship_spans_home(monkeypatch, tmp_path):
    shrink(monkeypatch, GoldenIread)
    tally = Tally()
    report = run.run_traced(GoldenIread(seed=3, work_dir=tmp_path), tally)
    metrics = report["metrics"]
    assert metrics["parallel.shards"] == 4
    assert metrics["sram.read_state_s"] > 0
    assert 0 < metrics["parallel.utilization"] <= 1.0
    assert metrics["gibbs.first_stage_s"] == 0  # the Gibbs layer is bypassed
