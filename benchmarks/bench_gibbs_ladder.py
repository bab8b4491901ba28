"""First-stage throughput of the wide-ladder search + Newton warm starts.

The Gibbs inner loop is a chain of *sequential* interval searches: every
conditional draw runs ``bisect_iters`` dependent rounds of simulations
(Algorithm 3), and each simulation is itself an iterative Newton solve.
This bench measures what the ladder and the per-chain warm start buy on
the 6-D read-noise-margin problem with a single chain — the regime where
sequential latency, not batch width, is the bottleneck:

* ``baseline`` — classic bisection on the cold-start oracle
  (``tests.test_gibbs_ladder.ColdStartMetric``): every Newton solve
  starts from its default guess, as before warm starts became the
  default.
* ``ladder`` — ``ladder_width = 7`` on the cold oracle: seven grid points
  per bracket side per round shrink the bracket 8x per round, so the
  radius search needs 2 rounds instead of 5 and the orientation search 3
  instead of 8, at the same final resolution.
* ``warm`` — the default sampler: each chain's Newton solves are seeded
  from its previous converged voltages, cutting iterations per solve
  (results shift within solver tolerance; see DESIGN.md).
* ``ladder+warm`` — both; this combination carries the asserted floor.

Timing is fully interleaved min-of-k (each round times every variant
once in rotation), the convention established by
``bench_backend_kernels``: on a shared container it is the only scheme
with stable ratios.  A separate instrumented pass per variant records
the telemetry counters — ``bisect.rounds`` per sample,
``newton.lane_iters`` / ``newton.lane_solves`` (iterations per Newton
lane) and ``newton.loop_iters`` / ``newton.solves`` (loop iterations per
solve, which set a one- or two-row solve's cost) — so the mechanism
behind the speedup is visible in the JSON, not just the headline.

Headline numbers land in ``BENCH_gibbs_ladder.json`` at the repository
root with the shared environment stamp.  The asserted floor —
ladder+warm >= 1.5x baseline samples/sec — sits under the measured
ratio with slack for machine noise.
"""

import json
import time
from pathlib import Path

import numpy as np

from benchmarks._shared import (
    SCALE,
    bench_metadata,
    problem,
    scaled,
    write_report,
)
from repro import telemetry
from repro.analysis.tables import format_table
from repro.gibbs.coordinates import initial_spherical_coordinates
from repro.gibbs.spherical import SphericalGibbs
from repro.gibbs.starting_point import find_starting_point
from repro.mc.counter import CountedMetric
from tests.test_gibbs_ladder import ColdStartMetric

JSON_PATH = Path(__file__).parent.parent / "BENCH_gibbs_ladder.json"

#: Grid points per bracket side per round for the ladder variants.
LADDER_WIDTH = 7

#: Variant label -> (warm start, ladder width).
VARIANTS = (
    ("baseline", False, 1),
    ("ladder", False, LADDER_WIDTH),
    ("warm", True, 1),
    ("ladder+warm", True, LADDER_WIDTH),
)

#: Acceptance floor on ladder+warm vs baseline samples/sec.
SPEEDUP_FLOOR = 1.5


def run():
    prob = problem("rnm")
    counted = CountedMetric(prob.metric)
    rng = np.random.default_rng(2026)
    start = find_starting_point(
        counted, prob.spec, counted.dimension, rng,
        doe_budget=scaled(400, 100),
    )
    r0, alpha0 = initial_spherical_coordinates(start.x)
    n_gibbs = scaled(30, 8)
    rounds = max(3, int(round(5 * SCALE)))

    cold = ColdStartMetric(counted)
    samplers = {
        name: SphericalGibbs(
            counted if warm else cold, prob.spec, ladder_width=width
        )
        for name, warm, width in VARIANTS
    }

    # Instrumented pass: per-variant telemetry counters and simulation
    # counts.  Kept outside the timed rounds so recorder overhead (tiny,
    # but nonzero) never touches the headline ratio.
    stats = {}
    for name, sampler in samplers.items():
        recorder = telemetry.Recorder(run_id=f"ladder-{name}")
        count0 = counted.count
        with telemetry.activate(recorder):
            chain = sampler.run(r0, alpha0, n_gibbs, np.random.default_rng(7))
        n = chain.n_samples
        counters = recorder.counters
        lanes = counters.get("newton.lane_solves", 0)
        solves = counters.get("newton.solves", 0)
        stats[name] = {
            "sims_per_sample": (counted.count - count0) / n,
            "bisect_rounds_per_sample": counters.get("bisect.rounds", 0) / n,
            "newton_iters_per_lane": (
                counters.get("newton.lane_iters", 0) / lanes if lanes else 0.0
            ),
            "newton_loop_iters_per_solve": (
                counters.get("newton.loop_iters", 0) / solves if solves else 0.0
            ),
        }

    # Timed pass: interleaved min-of-k, identical seed every round so
    # each variant repeats the same trajectory and min() measures the
    # machine's noise floor, not workload drift.
    best = {name: float("inf") for name, _, _ in VARIANTS}
    for _ in range(rounds):
        for name, sampler in samplers.items():
            t0 = time.perf_counter()
            sampler.run(r0, alpha0, n_gibbs, np.random.default_rng(7))
            best[name] = min(best[name], time.perf_counter() - t0)

    records = []
    base_rate = n_gibbs / best["baseline"]
    for name, warm, width in VARIANTS:
        rate = n_gibbs / best[name]
        records.append({
            "variant": name,
            "ladder_width": width,
            "warm_start": warm,
            "n_samples": n_gibbs,
            "best_run_s": best[name],
            "samples_per_sec": rate,
            "speedup_vs_baseline": rate / base_rate,
            **stats[name],
        })
    return records


def test_gibbs_ladder_throughput():
    records = run()
    headline = next(
        r["speedup_vs_baseline"] for r in records
        if r["variant"] == "ladder+warm"
    )
    payload = {
        "workload": "single-chain SphericalGibbs first stage, rnm (M = 6)",
        "ladder_width": LADDER_WIDTH,
        "environment": bench_metadata(),
        "records": records,
        "headline_ladder_warm_speedup": headline,
        "speedup_floor": SPEEDUP_FLOOR,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    table = format_table(
        ["variant", "samples/s", "vs base", "sims/sample",
         "rounds/sample", "newton it/lane", "loop it/solve"],
        [
            [
                r["variant"],
                f"{r['samples_per_sec']:.2f}",
                f"{r['speedup_vs_baseline']:.2f}x",
                f"{r['sims_per_sample']:.1f}",
                f"{r['bisect_rounds_per_sample']:.1f}",
                f"{r['newton_iters_per_lane']:.2f}",
                f"{r['newton_loop_iters_per_solve']:.2f}",
            ]
            for r in records
        ],
    )
    lines = [
        "first-stage throughput: wide-ladder search + Newton warm starts",
        "",
        table,
        "",
        f"headline ladder+warm speedup: {headline:.2f}x "
        f"(floor {SPEEDUP_FLOOR}x)",
    ]
    write_report("gibbs_ladder", "\n".join(lines))

    assert headline >= SPEEDUP_FLOOR, (
        f"ladder+warm reached only {headline:.2f}x vs baseline "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


if __name__ == "__main__":
    test_gibbs_ladder_throughput()
