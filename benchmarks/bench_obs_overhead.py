"""Hot-path overhead of recording a run with its live view.

The observability contract has two halves: results are bit-identical
with a telemetry recorder active or not (asserted here on every run),
and recording a run — spans, counters and the live view the exporters
serve — costs essentially nothing next to shards that each run thousands
of transistor metric evaluations.  This bench measures the Gibbs-method
hot path (G-S on the read-current problem, sharded through the inline
executor) in four modes:

* ``off``      — no recorder active (every site is one ``is None`` check);
* ``on``       — a :class:`~repro.telemetry.Recorder` active, which keeps
  the live view;
* ``scraped``  — recorder active *and* a loopback ``/metrics`` exporter
  polled at 10 Hz by a background thread (150 times a 15 s Prometheus
  scrape interval);
* ``off2``     — ``off`` again: the noise floor.

The inline (serial) executor is deliberate: it reports exactly the same
per-shard events as the pooled backends but keeps the wall clock free of
thread-scheduling noise.  Wall-clock drift on a shared box is
time-correlated, so every round runs all four modes back to back, in an
order rotated by one each round, and each mode's overhead is its
**median per-round ratio** to that round's ``off`` run.  ``off2``'s
median ratio measures what a mode that costs nothing reads, and the
interquartile range of ``off2``'s per-round ratios measures how far the
same work strays on this host at this moment (over 6 rounds it is about
two standard errors of the difference of two medians).  A mode fails
when its median ratio exceeds ``off2``'s by more than
``OVERHEAD_CEILING`` (2%) plus that spread: on a quiet host the gate is
2%, and on a noisy one it fails only on an overhead the run could tell
from noise.

Headline numbers land in ``BENCH_obs_overhead.json`` at the repo root.
"""

import json
import statistics
import threading
import time
import urllib.request
from pathlib import Path

from benchmarks._shared import bench_metadata, problem, scaled, write_report
from repro import telemetry
from repro.analysis.experiments import run_method
from repro.analysis.tables import format_table
from repro.obs.http import start_metrics_server

JSON_PATH = Path(__file__).parent.parent / "BENCH_obs_overhead.json"

#: Largest allowed excess of a mode's median ratio over ``off2``'s,
#: beyond the spread of ``off2``'s own per-round ratios.
OVERHEAD_CEILING = 0.02
ROUNDS = 6
MODES = ("off", "on", "scraped", "off2")


def _fingerprint(result):
    return (
        result.failure_probability,
        result.relative_error,
        result.n_first_stage,
        result.n_second_stage,
    )


def _timed(prob, kwargs):
    t0 = time.perf_counter()
    result = run_method("G-S", prob, **kwargs)
    return time.perf_counter() - t0, _fingerprint(result)


def _run_once(mode, prob, kwargs):
    """One timed run in ``mode``; returns (seconds, result fingerprint)."""
    if mode in ("off", "off2"):
        return _timed(prob, kwargs)
    recorder = telemetry.Recorder(f"bench-{mode}")
    with telemetry.activate(recorder):
        if mode == "on":
            return _timed(prob, kwargs)
        assert mode == "scraped"
        with start_metrics_server(0, recorder) as server:
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        urllib.request.urlopen(
                            f"{server.url}/metrics", timeout=5
                        ).read()
                    except OSError:
                        pass
                    stop.wait(0.1)  # 10 Hz, already aggressive

            scraper = threading.Thread(target=hammer, daemon=True)
            scraper.start()
            try:
                return _timed(prob, kwargs)
            finally:
                stop.set()
                scraper.join(timeout=5)


def run():
    prob = problem("iread")
    kwargs = dict(
        rng=2011,
        n_gibbs=scaled(150, 40),
        n_second_stage=scaled(30_000, 4_000),
        n_workers=1,
        backend="serial",
        shard_size=max(scaled(30_000, 4_000) // 16, 256),
    )

    # A discarded warm-up run absorbs first-touch costs (imports,
    # allocator growth, CPU frequency ramp).
    _run_once("off", prob, kwargs)
    times = {mode: [] for mode in MODES}
    fingerprints = set()
    for index in range(ROUNDS):
        shift = index % len(MODES)
        for mode in MODES[shift:] + MODES[:shift]:
            seconds, fingerprint = _run_once(mode, prob, kwargs)
            times[mode].append(seconds)
            fingerprints.add(fingerprint)

    # The determinism half of the contract: every run of every mode
    # computed the same estimate to the bit.
    assert len(fingerprints) == 1, fingerprints
    per_round = {
        mode: [t / off for t, off in zip(times[mode], times["off"])]
        for mode in MODES[1:]
    }
    ratio = {mode: statistics.median(r) for mode, r in per_round.items()}
    quartiles = statistics.quantiles(per_round["off2"], n=4)
    noise = quartiles[2] - quartiles[0]
    allowed = OVERHEAD_CEILING + noise
    excess = {m: ratio[m] - ratio["off2"] for m in ("on", "scraped")}
    failed = [m for m, value in excess.items() if value > allowed]

    payload = {
        "environment": bench_metadata(),
        "problem": "iread (read current, M = 2)",
        "method": "G-S",
        "n_gibbs": kwargs["n_gibbs"],
        "n_second_stage": kwargs["n_second_stage"],
        "shard_size": kwargs["shard_size"],
        "backend": "serial (inline executor, same events as pooled)",
        "rounds": ROUNDS,
        "seconds": times,
        "median_ratio_vs_off": ratio,
        "excess_over_off2": excess,
        "overhead_ceiling": OVERHEAD_CEILING,
        "off2_ratio_iqr": noise,
        "allowed_excess": allowed,
        "failed_modes": failed,
        "results_identical_across_modes": True,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            mode,
            f"{statistics.median(times[mode]):.3f}",
            "-" if mode == "off" else f"{100 * (ratio[mode] - 1):+.2f}%",
            f"{100 * excess[mode]:+.2f}%" if mode in excess else "-",
        ]
        for mode in MODES
    ]
    report = (
        f"G-S on iread, K = {kwargs['n_gibbs']}, "
        f"N = {kwargs['n_second_stage']}, inline executor, "
        f"{ROUNDS} rounds in rotated order:\n"
        + format_table(
            ["mode", "median [s]", "median ratio - 1", "beyond off2"], rows
        )
        + "\n\nresults bit-identical across all modes: yes\n"
        f"acceptance: 'on' and 'scraped' at most "
        f"{100 * OVERHEAD_CEILING:.0f}% + off2's per-round IQR "
        f"({100 * noise:.2f}%) = {100 * allowed:.2f}% beyond off2: "
        f"{'failed by ' + ', '.join(failed) if failed else 'passed'}\n"
        f"JSON record: {JSON_PATH.name}"
    )
    write_report("obs_overhead", report)
    # The gate runs after the record is written, so a failing run still
    # leaves its numbers.
    assert not failed, (
        f"{failed} beyond off2's {100 * (ratio['off2'] - 1):+.2f}% by more "
        f"than {100 * allowed:.2f}%: "
        + ", ".join(f"{m} {100 * excess[m]:+.2f}%" for m in failed)
    )


def test_obs_overhead(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    run()
