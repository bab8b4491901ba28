"""Waterfall math: span tree, self time, closure against wall clock."""

import pytest

from perfbench.waterfall import build_tree, inclusive_sims, self_times, waterfall

MAIN = (100, 1)


def span(name, start, end, pid=100, tid=1, **counters):
    return {
        "name": name, "start": float(start), "dur": float(end - start),
        "pid": pid, "tid": tid, "attrs": {}, "counters": counters,
    }


def closes(wf):
    total = sum(m["self_s"] for m in wf["modules"].values())
    return total + wf["unattributed_s"] == pytest.approx(wf["wall_s"], rel=1e-12)


def test_nested_self_time_is_duration_minus_children():
    spans = [
        span("gibbs.first_stage", 0, 10),
        span("gibbs.chain", 2, 5),
        span("sram.evaluate", 3, 4, rows=7),
    ]
    parent = build_tree(spans, MAIN)
    assert parent == [-1, 0, 1]
    own, unattributed = self_times(spans, parent, (0.0, 10.0))
    assert own == pytest.approx([7.0, 2.0, 1.0])
    assert unattributed == 0.0


def test_time_outside_every_span_is_unattributed():
    spans = [span("mc.run", 1, 4), span("mc.run", 6, 8)]
    wf = waterfall(spans, (0.0, 10.0), MAIN)
    assert wf["unattributed_s"] == pytest.approx(5.0)
    assert wf["spans"]["mc.run"]["self_s"] == pytest.approx(5.0)
    assert closes(wf)


def test_overlapping_worker_spans_share_the_interval():
    spans = [
        span("parallel.map", 0, 10),
        span("shard.is", 1, 6, pid=201),
        span("shard.is", 2, 8, pid=202),
        span("sram.evaluate", 3, 4, pid=202, rows=5),
    ]
    parent = build_tree(spans, MAIN)
    assert parent == [-1, 0, 0, 2]
    own, unattributed = self_times(spans, parent, (0.0, 10.0))
    # map alone on [0,1] and [8,10]; the two shards split [2,3] and [4,6];
    # on [3,4] worker 201's shard splits with worker 202's evaluate.
    assert own == pytest.approx([3.0, 3.0, 3.5, 0.5])
    assert sum(own) + unattributed == pytest.approx(10.0)
    wf = waterfall(spans, (0.0, 10.0), MAIN, parent)
    assert wf["spans"]["shard.is"]["busy_s"] == pytest.approx(11.0)
    assert wf["modules"]["parallel"]["sims"] == 5
    assert closes(wf)


def test_a_worker_span_never_parents_another_workers_span():
    spans = [
        span("parallel.map", 0, 10),
        span("shard.mc", 1, 9, pid=201),
        span("shard.mc", 2, 3, pid=202),
    ]
    assert build_tree(spans, MAIN) == [-1, 0, 0]


def test_job_thread_hangs_under_the_client_request():
    spans = [
        span("bench.request", 0, 10, tid=1),
        span("service.job", 1, 9, tid=2),
        span("parallel.map", 2, 8, tid=2),
        span("shard.gibbs", 3, 7, pid=201),
    ]
    assert build_tree(spans, MAIN) == [-1, 0, 1, 2]
    wf = waterfall(spans, (0.0, 10.0), MAIN)
    assert wf["spans"]["bench.request"]["self_s"] == pytest.approx(2.0)
    assert wf["spans"]["shard.gibbs"]["self_s"] == pytest.approx(4.0)
    assert closes(wf)


def test_sims_are_counted_once_per_layer():
    spans = [
        span("gibbs.first_stage", 0, 10),
        span("gibbs.start_point", 0, 2),
        span("sram.evaluate", 0.5, 1, rows=3),
        span("gibbs.chain", 2, 9),
        span("sram.evaluate", 3, 4, rows=4),
        span("sram.evaluate", 5, 6, rows=6),
    ]
    parent = build_tree(spans, MAIN)
    sims = inclusive_sims(spans, parent)
    assert sims[0] == 13 and sims[1] == 3 and sims[3] == 10
    wf = waterfall(spans, (0.0, 10.0), MAIN, parent)
    assert wf["modules"]["gibbs"]["sims"] == 13
    assert wf["modules"]["sram"]["sims"] == 13
    assert wf["spans"]["gibbs.chain"]["sims"] == 10


def test_spans_are_clipped_to_the_window():
    spans = [span("setup", -5, -1), span("mc.run", -1, 3)]
    wf = waterfall(spans, (0.0, 4.0), MAIN)
    assert "setup" not in wf["spans"]
    assert wf["spans"]["mc.run"]["self_s"] == pytest.approx(3.0)
    assert wf["unattributed_s"] == pytest.approx(1.0)
    assert closes(wf)
