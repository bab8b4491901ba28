"""The read-state solve's two stated contracts, on ~1.2M lanes.

Two measures make ``SixTransistorCell.solve_read_state`` differ from the
pre-change read path, each within a stated bound:

* the stop: ``_read_fixed_point`` stops a straggler's bisection once its
  bracket bounds the read current within ``_READ_CURRENT_TOL`` (1 pA);
* the start: each Newton lane starts at its first-order predicted read
  state, not at the stored state, guarded so that a lane converging
  anywhere but the stored state reruns from the stored start.

This bench checks both on the populations the read-current flows
simulate: golden Monte-Carlo draws from N(0, I), importance-sampling tails
(normals shifted around the read-upset wedge, and a widened normal), draws
from G-S proposals fitted at five seeds — 1,081,344 lanes at the default
scale — and a fold-dense grid across the read-upset fold (160,000 lanes).
Every lane's read state is solved in the metric's 4,096-row chunks.

Stop contract, with the start pinned to the stored state: against
``SequentialReadCell`` (the pre-change read path with its 30 sequential
bisection steps and its scan's two Newton solves per grid point, kept in
tests/test_sram_cell.py), every read current within the tolerance of the
oracle's, no pass/fail change at the 35 uA spec, and the lanes the Newton
pass converges bit-identical.  With the tolerance at ``-inf`` as well,
every lane, fixed-point lanes included, is the oracle's bit for bit: the
check on the fixed point's residual-sign scan, whose grid points inside
``_READ_SCAN_BAND`` are Newton-solved (``read.scan_newton_points``).

Start contract, the predicted start against the pinned one: the same
lanes reach the fixed point and are bit-identical there, no pass/fail
change, and every Newton-accepted read current within
``floor + (1 + slack) * (eps_new + eps_pinned)``, where ``eps`` is the
first-order distance of a solution's read current from the exact root's
(``|dI/dv_low * (J^-1 f)_low|`` at that solution), the slack (1e-3)
covers second-order terms and the floor (1 fA) femtoamp-level moves.  Both solves are also
bit-identical in 1,024-row chunks (batch composition).

The report gives, per population, the stop's stragglers, steps, scan
points Newton-solved and largest current change, then the start's guard
rejections, Newton lane-iterations per lane under each start, the largest
and median current change, its largest ratio to ``eps_new + eps_pinned``
and each solve's wall time.
"""

import time

import numpy as np
import pytest

from benchmarks._shared import bench_metadata, scaled, write_report
from repro import telemetry
from repro.analysis.tables import format_table
from repro.gibbs.two_stage import fit_first_stage
from repro.sram import cell as cell_module
from repro.sram.problems import read_current_problem
from tests.test_sram_cell import (
    _FIRST_ORDER_FLOOR,
    _FIRST_ORDER_SLACK,
    SequentialReadCell,
    _first_order_error,
    _low_read_current,
    _newton_lanes,
    _pin_stored_start,
)

#: Centres of the shifted-normal tails, around the read-upset wedge.
SHIFTS = ((3.0, -3.0), (4.0, -2.0), (2.0, -4.0), (3.5, -3.5), (2.5, -3.0))

#: First-stage seeds of the fitted G-S proposals.
GS_SEEDS = tuple(range(5))

#: The read-upset fold runs near ``x1 - x2 = 5.85``: 4.14 sigma from
#: nominal along (1, -1).  The grid spans this band across it.
FOLD_ACROSS = (4.05, 4.25)
FOLD_ALONG = (-2.5, 2.5)


def populations(prob):
    """``{label: x}`` of whitened ``(n, 2)`` samples."""
    gen = np.random.default_rng(20261018)
    pops = {"golden N(0, I)": gen.standard_normal((scaled(524288, 4096), 2))}
    for shift in SHIFTS:
        pops["N((%g, %g), I)" % shift] = (
            np.array(shift) + gen.standard_normal((scaled(65536, 1024), 2))
        )
    pops["N(0, 6.25 I)"] = 2.5 * gen.standard_normal((scaled(65536, 1024), 2))
    for seed in GS_SEEDS:
        artifact = fit_first_stage(
            prob.metric, prob.spec, dimension=2, n_gibbs=scaled(150, 30),
            n_chains=4, rng=seed, n_workers=1, backend="serial",
        )
        pops[f"G-S g_nor, seed {seed}"] = artifact.proposal.sample(
            scaled(32768, 512), np.random.default_rng(100 + seed)
        )
    side = scaled(400, 32)
    across, along = np.meshgrid(np.linspace(*FOLD_ACROSS, side),
                                np.linspace(*FOLD_ALONG, side))
    pops["fold grid"] = np.stack(
        [along + across, along - across], axis=-1
    ).reshape(-1, 2) / np.sqrt(2.0)
    return pops


def solve(cell, mismatch, x, chunk=4096):
    """Read state ``(v_q, v_qb)`` of every row of ``x``, chunk by chunk."""
    out = np.empty((2, len(x)))
    for s in range(0, len(x), chunk):
        out[:, s:s + chunk] = cell.solve_read_state(
            mismatch.deltas(x[s:s + chunk])
        )
    return out


def newton_lanes(cell, mismatch, x, chunk=4096):
    """Mask of the lanes the Newton pass converges, chunk by chunk."""
    return np.concatenate([
        _newton_lanes(cell, mismatch.deltas(x[s:s + chunk]), True)
        for s in range(0, len(x), chunk)
    ])


def counted_solve(cell, mismatch, x):
    """``(state, seconds, counters)`` of one chunked solve."""
    recorder = telemetry.Recorder(run_id="read-current-contracts")
    t0 = time.perf_counter()
    with telemetry.activate(recorder):
        state = solve(cell, mismatch, x)
    return state, time.perf_counter() - t0, recorder.counters


def stop_contract(cell, oracle, mismatch, x, deltas, spec):
    """The tolerance stop against the oracle, start pinned: the pinned
    solve, its Newton lanes and the report cells."""
    tol = cell_module._READ_CURRENT_TOL
    stopped, t_stop, counters = counted_solve(cell, mismatch, x)
    t0 = time.perf_counter()
    full = solve(oracle, mismatch, x)
    t_full = time.perf_counter() - t0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cell_module, "_READ_CURRENT_TOL", -np.inf)
        exact, t_exact, _ = counted_solve(cell, mismatch, x)
    differ = np.flatnonzero(np.any(exact.view(np.int64) != full.view(np.int64), axis=0))
    assert differ.size == 0, f"lanes {differ[:10]} differ from the oracle with the stop off"
    newton = newton_lanes(cell, mismatch, x)
    i_stop = _low_read_current(cell, stopped, deltas, True)
    i_full = _low_read_current(cell, full, deltas, True)
    change = float(np.max(np.abs(i_stop - i_full)))
    flips = int(np.count_nonzero((i_stop < spec) != (i_full < spec)))
    assert change <= tol, f"read current moved {change:.3g} A"
    assert flips == 0, f"{flips} lanes changed pass/fail"
    np.testing.assert_array_equal(stopped[:, newton], full[:, newton])
    np.testing.assert_array_equal(solve(cell, mismatch, x, chunk=1024), stopped)
    lanes = counters.get("read.fixed_point_lanes", 0)
    assert lanes == np.count_nonzero(~newton)
    failures = int(np.count_nonzero(i_full < spec))
    stats = dict(lanes=lanes, steps=counters.get("read.bisect_steps", 0),
                 points=counters.get("read.scan_newton_points", 0),
                 failures=failures, change=change, flips=flips,
                 t_stop=t_stop, t_exact=t_exact, t_full=t_full,
                 iters=counters.get("read.newton_lane_iters", 0),
                 rejected=counters.get("read.start_rejected", 0))
    return stopped, newton, stats


def start_contract(cell, mismatch, x, deltas, spec, pinned, newton_pinned):
    """The predicted start against the pinned one: report cells."""
    got, t_pred, counters = counted_solve(cell, mismatch, x)
    newton = newton_lanes(cell, mismatch, x)
    changed = np.flatnonzero(newton != newton_pinned)
    assert changed.size == 0, f"lanes {changed[:10]} changed Newton/fixed point"
    routed = ~newton
    differ = np.flatnonzero(np.any(got[:, routed] != pinned[:, routed], axis=0))
    assert differ.size == 0, f"fixed-point lanes {np.flatnonzero(routed)[differ[:10]]} differ"
    i_got = _low_read_current(cell, got, deltas, True)
    i_want = _low_read_current(cell, pinned, deltas, True)
    flips = int(np.count_nonzero((i_got < spec) != (i_want < spec)))
    assert flips == 0, f"{flips} lanes changed pass/fail"
    eps = (_first_order_error(cell, got, deltas, True)
           + _first_order_error(cell, pinned, deltas, True))[newton]
    moved = np.abs(i_got - i_want)[newton]
    over = moved > _FIRST_ORDER_FLOOR + (1.0 + _FIRST_ORDER_SLACK) * eps
    assert not over.any(), (
        f"Newton lanes {np.flatnonzero(newton)[over][:10]} moved past the bound"
    )
    # The largest ratio to eps among currents that moved by more than the
    # absolute floor: what the relative slack has to cover.
    resolved = moved > _FIRST_ORDER_FLOOR
    worst = float(np.max(moved[resolved] / eps[resolved])) if resolved.any() else 0.0
    np.testing.assert_array_equal(solve(cell, mismatch, x, chunk=1024), got)
    return dict(
        rejected=counters.get("read.start_rejected", 0),
        iters=counters.get("read.newton_lane_iters", 0),
        moved=int(np.count_nonzero(moved)),
        max=float(np.max(moved)) if moved.size else 0.0,
        median=float(np.median(moved)) if moved.size else 0.0,
        worst=worst, t_pred=t_pred,
    )


def run():
    prob = read_current_problem()
    metric, cell, spec = prob.metric, prob.metric.cell, prob.spec.threshold
    mismatch = metric.mismatch
    oracle = SequentialReadCell(cell.technology, cell.geometries)
    tol = cell_module._READ_CURRENT_TOL
    cell.solve_read_state(mismatch.deltas(np.zeros((1, 2))))  # the prediction
    stop_rows, start_rows = [], []
    stop_tot, start_tot = np.zeros(11), np.zeros(5)
    worst_all = max_all = 0.0
    for label, x in populations(prob).items():
        deltas = mismatch.deltas(x)
        with pytest.MonkeyPatch.context() as mp:
            _pin_stored_start(mp)
            pinned, newton, stop = stop_contract(cell, oracle, mismatch, x,
                                                 deltas, spec)
        start = start_contract(cell, mismatch, x, deltas, spec, pinned, newton)
        n, routed = len(x), stop["lanes"]
        stop_rows.append([
            label, f"{n:,}", f"{routed:,}",
            f"{stop['steps'] / routed:.2f}" if routed else "-",
            f"{stop['points']:,}",
            f"{stop['failures']:,}", f"{stop['change']:.1e}", stop["flips"],
            f"{stop['t_stop']:.1f}", f"{stop['t_exact']:.1f}", f"{stop['t_full']:.1f}",
        ])
        start_rows.append([
            label, f"{n - routed:,}", stop["rejected"], start["rejected"],
            f"{stop['iters'] / n:.2f}", f"{start['iters'] / n:.2f}",
            f"{start['moved']:,}", f"{start['max']:.1e}", f"{start['median']:.1e}",
            f"{start['worst']:.7f}", f"{stop['t_stop']:.1f}", f"{start['t_pred']:.1f}",
        ])
        stop_tot += (n, routed, stop["steps"], stop["failures"], stop["t_stop"],
                     stop["t_full"], stop["iters"], stop["flips"], stop["rejected"],
                     stop["points"], stop["t_exact"])
        start_tot += (start["rejected"], start["iters"], start["moved"],
                      start["t_pred"], n - routed)
        worst_all = max(worst_all, start["worst"])
        max_all = max(max_all, start["max"])
    (n, routed, steps, failures, t_stop, t_full, iters_pinned, flips,
     rejected_pinned, points, t_exact) = stop_tot
    rejected, iters_pred, moved, t_pred, newton_total = start_tot
    stop_rows.append([
        "all", f"{int(n):,}", f"{int(routed):,}", f"{steps / routed:.2f}",
        f"{int(points):,}", f"{int(failures):,}",
        f"{max(float(r[6]) for r in stop_rows):.1e}",
        int(flips), f"{t_stop:.1f}", f"{t_exact:.1f}", f"{t_full:.1f}",
    ])
    start_rows.append([
        "all", f"{int(newton_total):,}", int(rejected_pinned), int(rejected),
        f"{iters_pinned / n:.2f}", f"{iters_pred / n:.2f}", f"{int(moved):,}",
        f"{max_all:.1e}", "-", f"{worst_all:.7f}", f"{t_stop:.1f}", f"{t_pred:.1f}",
    ])
    env = bench_metadata()
    report = "\n".join([
        "Stop contract (start pinned to the stored state) against the "
        "sequential oracle:",
        format_table(
            ["population", "lanes", "stragglers", "steps/straggler",
             "scan Newton points", "failures", "max |dI| (A)", "flips",
             "cell s", "exact s", "oracle s"],
            stop_rows,
        ),
        "",
        f"Tolerance {tol:g} A against the {spec:g} A spec.  Every read "
        "current within it, no pass/fail change, Newton-converged lanes "
        "bit-identical, 1,024-row chunks bit-identical to 4,096-row ones.  "
        "The oracle takes 30 steps per straggler by construction.  With "
        "the tolerance at -inf (exact s) every lane, fixed-point lanes "
        "included, is the oracle's bit for bit.  Scan Newton points: the "
        "fixed point's scan points whose near residual fell inside the "
        f"{cell_module._READ_SCAN_BAND:g} A band, Newton-solved; the "
        "residual's sign decided the rest.",
        "",
        "Start contract, the predicted start against the pinned one "
        "(|dI| over Newton-accepted lanes):",
        format_table(
            ["population", "Newton lanes", "rejected pinned",
             "rejected predicted", "iters/lane pinned",
             "iters/lane predicted", "moved", "max |dI| (A)",
             "median |dI| (A)", "max |dI|/eps", "pinned s", "predicted s"],
            start_rows,
        ),
        "",
        "The same lanes reach the fixed point under both starts, and they "
        "are bit-identical there; no pass/fail change; every Newton-accepted "
        "read current within %g A + (1 + %g) * eps, eps = eps_new + "
        "eps_pinned and each eps = |dI/dv_low * (J^-1 f)_low| at its "
        "solution (max |dI|/eps over lanes that moved by more than %g A); "
        "1,024-row chunks bit-identical to 4,096-row ones."
        % (_FIRST_ORDER_FLOOR, _FIRST_ORDER_SLACK, _FIRST_ORDER_FLOOR),
        "",
        "Environment: %d cores (nproc %d), python %s, numpy %s, %s, %s, "
        "bench_scale %g." % (
            env["cpu_count"], env["nproc"], env["python"], env["numpy"],
            env["blas"], env["platform"], env["bench_scale"],
        ),
    ])
    write_report("read_current_tolerance", report)


def test_read_current_tolerance(benchmark):
    benchmark.pedantic(run, rounds=1, iterations=1)


if __name__ == "__main__":
    run()
