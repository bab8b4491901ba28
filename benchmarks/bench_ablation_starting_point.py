"""Ablation: the value of the model-based starting point (Algorithm 4).

Section IV-B argues a good starting point removes the warm-up interval.
This bench runs the same G-S flow twice on the read-current problem: once
from the Algorithm-4 minimum-norm point, once from a deliberately poor
start (the same direction pushed 1.8x deeper into the failure region — a
valid but low-likelihood point).  The comparison reports how far the early
chain samples sit from the high-probability region and the effect on the
final estimate quality.
"""

import numpy as np

from benchmarks._shared import problem, read_current_golden, scaled, write_report
from repro.analysis.tables import format_table
from repro.gibbs.coordinates import initial_spherical_coordinates
from repro.gibbs.starting_point import StartingPoint, find_starting_point
from repro.gibbs.two_stage import gibbs_importance_sampling


def degraded_start(start: StartingPoint, factor: float = 1.8) -> StartingPoint:
    x = factor * start.x
    r, alpha = initial_spherical_coordinates(x)
    return StartingPoint(
        x=x, r=r, alpha=alpha, n_simulations=0, surrogate=start.surrogate
    )


def run():
    prob = problem("iread")
    golden = read_current_golden().failure_probability
    good = find_starting_point(
        prob.metric, prob.spec, prob.dimension,
        np.random.default_rng(4), doe_budget=scaled(400, 100),
    )
    bad = degraded_start(good)

    rows = []
    for label, start in (("Algorithm 4", good), ("1.8x overshoot", bad)):
        result = gibbs_importance_sampling(
            prob.metric, prob.spec,
            coordinate_system="spherical",
            n_gibbs=scaled(300, 50),
            n_second_stage=scaled(6000, 1000),
            rng=np.random.default_rng(44),
            start=start,
        )
        chain = result.extras["chain"]
        early_radius = float(
            np.linalg.norm(chain.pooled_samples[:20], axis=1).mean()
        )
        rows.append([
            label, f"{np.linalg.norm(start.x):.2f}",
            f"{early_radius:.2f}",
            f"{result.failure_probability:.3e}",
            f"{result.failure_probability / golden:.2f}",
            f"{100 * result.relative_error:.1f}%",
        ])
    report = format_table(
        ["start", "start |x|", "mean |x| of first 20 samples",
         "estimate", "ratio to golden", "rel. err."],
        rows,
    )
    report += (
        "\n\nReading: the Algorithm-4 start launches the chain already at "
        "the high-probability radius; an overshot start relies on the "
        "radius conditional to walk back in.  (Measured: the walk-back "
        "happens within the first sweep — the spherical chain is robust to "
        "radial start error, so Algorithm 4's practical value is locating "
        "the failure region cheaply and fixing the starting *direction*.)"
    )
    write_report("ablation_starting_point", report)


def test_ablation_starting_point(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)
