"""Fig. 3 reproduction: conditional orientation sampling spreads over an arc.

The paper's Fig. 3 samples the conditional g_opt(alpha_1 | r, alpha_2) for
the quarter-plane region of Eq. (18) with r = 1 and alpha_2 in {1, 3}, and
observes (a) the samples land on a 2-D arc and (b) the arc is *longer* when
alpha_2 is small.  This bench draws 100 such conditional samples for both
cases and reports the arc spans.
"""

import numpy as np

from benchmarks._shared import write_report
from repro.analysis.tables import format_table
from repro.gibbs.inverse_transform import sample_conditional_batch
from repro.gibbs.spherical import SphericalGibbs
from repro.mc.indicator import FailureSpec
from repro.stats.distributions import StandardNormal
from repro.synthetic import QuadrantMetric

SPEC = FailureSpec(0.0, fail_below=True)


def conditional_arc_samples(alpha_2: float, n: int = 100, seed: int = 3):
    """Fresh draws of alpha_1 from g_opt(alpha_1 | r=1, alpha_2)."""
    rng = np.random.default_rng(seed)
    metric = QuadrantMetric(np.zeros(2))
    sampler = SphericalGibbs(metric, SPEC, dimension=2, bisect_iters=10)
    r = 1.0
    points = []
    for _ in range(n):
        # One lockstep chain at the failing anchor (first quadrant).
        alpha = np.array([[1.0, alpha_2]])
        fails = sampler._orientation_indicator_lockstep(
            np.array([r]), alpha, 0
        )
        (a1,), _ = sample_conditional_batch(
            fails, current=alpha[:, 0], base=StandardNormal(),
            lo=-8.0, hi=8.0, rng=[rng], bisect_iters=10,
        )
        alpha[0, 0] = a1
        points.append(r * alpha[0] / np.linalg.norm(alpha[0]))
    return np.asarray(points)


def run():
    rows = []
    spans = {}
    for alpha_2 in (1.0, 3.0):
        pts = conditional_arc_samples(alpha_2)
        radii = np.linalg.norm(pts, axis=1)
        angles = np.degrees(np.arctan2(pts[:, 1], pts[:, 0]))
        spans[alpha_2] = angles.max() - angles.min()
        rows.append([
            f"alpha_2 = {alpha_2:g}",
            f"{radii.min():.4f}..{radii.max():.4f}",
            f"{angles.min():.1f}..{angles.max():.1f} deg",
            f"{spans[alpha_2]:.1f} deg",
            f"{pts[:, 0].min():.3f}..{pts[:, 0].max():.3f}",
        ])
    report = format_table(
        ["case (r = 1)", "radius range", "angle range", "arc span",
         "x1 range"],
        rows,
    )
    report += (
        "\n\nPaper's observations: samples lie on the r = 1 arc (radius "
        "range is degenerate), and the arc is longer for the smaller "
        "alpha_2 - reproduced iff span(alpha_2=1) > span(alpha_2=3): "
        f"{spans[1.0]:.1f} > {spans[3.0]:.1f} deg = "
        f"{spans[1.0] > spans[3.0]}"
    )
    write_report("fig03_arc_sampling", report)
    assert spans[1.0] > spans[3.0]
    return spans


def test_fig03_arc_sampling(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)
