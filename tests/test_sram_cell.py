"""Tests for the 6-T cell and its batched analyses (repro.sram.cell)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.circuit import solve_dc
from repro.circuit import warm
from repro.devices.technology import DeviceGeometry
from repro.sram import cell as cell_module
from repro.sram.cell import (
    _VTC_BLOCK_LANES,
    _VTC_COARSE_STRIDE,
    DEVICE_NAMES,
    PAPER_INDEX,
    SixTransistorCell,
    _interp_along_axis0,
    _solve_monotone_node,
)
from repro.sram.metrics import (
    HoldNoiseMarginMetric,
    ReadNoiseMarginMetric,
    WriteNoiseMarginMetric,
)
from repro.sram.problems import fragile_cell


def _solve_monotone_node_reference(residual, lo, hi, shape,
                                   iterations=26, tol=2e-12):
    """The pre-active-set full-array loop, verbatim (flattened inputs).

    Kept here as the ground truth the active-set/early-exit rewrite must
    match bit for bit: frozen lanes were already inert in this loop (the
    bracket updates mask on ``~done`` and ``v`` keeps its frozen value), so
    compacting them away must not change a single ULP.
    """
    n = int(np.prod(shape)) if shape else 1
    lo_arr = np.full(n, float(lo))
    hi_arr = np.full(n, float(hi))
    v = 0.5 * (lo_arr + hi_arr)
    for _ in range(iterations):
        f, dfdv = residual(v)
        done = np.abs(f) < tol
        if done.all():
            break
        above = f > 0.0
        hi_arr = np.where(above & ~done, v, hi_arr)
        lo_arr = np.where(~above & ~done, v, lo_arr)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dfdv > 0.0, -f / dfdv, 0.0)
        candidate = v + step
        inside = (candidate > lo_arr) & (candidate < hi_arr) & (dfdv > 0.0)
        v_next = np.where(inside, candidate, 0.5 * (lo_arr + hi_arr))
        v = np.where(done, v, v_next)
    return v.reshape(shape)


def _half_cell_residual_reference(cell, side, vin, bl_voltage, wl_voltage,
                                  delta_vth, shape):
    """The per-side, per-device half-cell residual before the two sides
    were fused, verbatim (numpy): three EKV calls per evaluation."""
    suffix = "_l" if side == "left" else "_r"
    pd = cell.devices["pd" + suffix]
    pu = cell.devices["pu" + suffix]
    ax = cell.devices["ax" + suffix]
    vdd = cell.vdd
    n = int(np.prod(shape)) if shape else 1

    def flat(value):
        return np.reshape(
            np.broadcast_to(np.asarray(value, dtype=np.float64), shape), (n,)
        )

    vin_f = flat(vin)
    d_pd = flat(delta_vth.get("pd" + suffix, 0.0))
    d_pu = flat(delta_vth.get("pu" + suffix, 0.0))
    d_ax = flat(delta_vth.get("ax" + suffix, 0.0))

    def residual(v_node, idx=None):
        if idx is None:
            vin_x, dpd_x, dpu_x, dax_x = vin_f, d_pd, d_pu, d_ax
        else:
            vin_x, dpd_x, dpu_x, dax_x = (
                vin_f[idx], d_pd[idx], d_pu[idx], d_ax[idx]
            )
        i_pd, _, dd_pd, _ = pd.current_and_derivs(vin_x, v_node, 0.0, 0.0, dpd_x)
        i_pu, _, dd_pu, _ = pu.current_and_derivs(vin_x, v_node, vdd, vdd, dpu_x)
        i_ax, _, _, ds_ax = ax.current_and_derivs(
            wl_voltage, bl_voltage, v_node, 0.0, dax_x
        )
        f = i_pd + i_pu - i_ax
        dfdv = dd_pd + dd_pu - ds_ax
        return f, dfdv

    return residual


def _half_cell_vtc_reference(cell, side, vin_grid, bl_voltage, delta_vth=None,
                             wl_voltage=None, v0=None):
    """The per-side VTC before the two sides were fused, verbatim (numpy).

    Kept as the ground truth the fused kernel must match bit for bit: one
    coarse and one full Newton loop per side, four per butterfly.
    """
    delta_vth = dict(delta_vth or {})
    wl_voltage = cell.vdd if wl_voltage is None else float(wl_voltage)
    vin_grid = np.asarray(vin_grid, dtype=np.float64)
    batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
        if delta_vth else ()
    vin = np.reshape(vin_grid, (-1,) + (1,) * len(batch_shape))
    n_grid = int(vin_grid.shape[0])
    shape = (n_grid,) + batch_shape
    residual = _half_cell_residual_reference(
        cell, side, vin, float(bl_voltage), wl_voltage, delta_vth, shape
    )
    lo, hi = -0.2, cell.vdd + 0.2
    if v0 is not None:
        seed = np.asarray(v0, dtype=np.float64)
        if tuple(seed.shape) == shape:
            return _solve_monotone_node(residual, lo, hi, shape, v0=seed)
    if n_grid < 2 * _VTC_COARSE_STRIDE:
        return _solve_monotone_node(residual, lo, hi, shape)
    coarse_idx = np.arange(0, n_grid, _VTC_COARSE_STRIDE)
    if int(coarse_idx[-1]) != n_grid - 1:
        coarse_idx = np.concat(
            [coarse_idx, np.asarray([n_grid - 1], dtype=coarse_idx.dtype)]
        )
    coarse_shape = (int(coarse_idx.shape[0]),) + batch_shape
    vin_coarse = np.take(vin_grid, coarse_idx, axis=0)
    coarse_res = _half_cell_residual_reference(
        cell, side, np.reshape(vin_coarse, (-1,) + (1,) * len(batch_shape)),
        float(bl_voltage), wl_voltage, delta_vth, coarse_shape,
    )
    v_coarse = _solve_monotone_node(coarse_res, lo, hi, coarse_shape)
    interp = _interp_along_axis0(vin_grid, vin_coarse, v_coarse)
    return _solve_monotone_node(residual, lo, hi, shape, v0=interp)


class ReferenceCell(SixTransistorCell):
    """A cell whose every half-cell solve runs the per-side oracle above:
    metrics and the read-state straggler path built on it reproduce the
    pre-fusion arithmetic."""

    def _half_cell_residual(self, sides, vin, bl_voltage, wl_voltage,
                            delta_vth, shape):
        if not isinstance(sides, str):
            (sides,), (bl_voltage,) = sides, bl_voltage
        return _half_cell_residual_reference(
            self, sides, vin, bl_voltage, wl_voltage, delta_vth, shape
        )

    def half_cell_vtc(self, side, vin_grid, bl_voltage, delta_vth=None,
                      wl_voltage=None, v0=None):
        if isinstance(side, str):
            return _half_cell_vtc_reference(
                self, side, vin_grid, bl_voltage, delta_vth, wl_voltage, v0
            )
        seeds = v0 if v0 is not None else (None,) * len(side)
        return tuple(
            _half_cell_vtc_reference(self, s, vin_grid, b, delta_vth, wl_voltage, v)
            for s, b, v in zip(side, bl_voltage, seeds)
        )


class SequentialReadCell(ReferenceCell):
    """:class:`ReferenceCell` with the pre-change read path on top, kept
    verbatim: the read-state Newton pass with six per-device calls and the
    30-step sequential fixed-point bisection."""

    def solve_read_state(self, delta_vth=None, stored_zero_at_q=True,
                         newton_iterations=80):
        """The read-state solve before stacking and the speculative tree."""
        delta_vth = dict(delta_vth or {})
        batch_shape = np.broadcast_shapes(*(np.shape(d) for d in delta_vth.values())) \
            if delta_vth else ()
        vdd = self.vdd
        dev = self.devices
        d = {name: delta_vth.get(name, 0.0) for name in DEVICE_NAMES}

        def residuals(vq, vqb, d):
            i_pd_l, dg_pd_l, dd_pd_l, _ = dev["pd_l"].current_and_derivs(
                vqb, vq, 0.0, 0.0, d["pd_l"])
            i_pu_l, dg_pu_l, dd_pu_l, _ = dev["pu_l"].current_and_derivs(
                vqb, vq, vdd, vdd, d["pu_l"])
            i_ax_l, _, _, ds_ax_l = dev["ax_l"].current_and_derivs(
                vdd, vdd, vq, 0.0, d["ax_l"])
            i_pd_r, dg_pd_r, dd_pd_r, _ = dev["pd_r"].current_and_derivs(
                vq, vqb, 0.0, 0.0, d["pd_r"])
            i_pu_r, dg_pu_r, dd_pu_r, _ = dev["pu_r"].current_and_derivs(
                vq, vqb, vdd, vdd, d["pu_r"])
            i_ax_r, _, _, ds_ax_r = dev["ax_r"].current_and_derivs(
                vdd, vdd, vqb, 0.0, d["ax_r"])
            fq = i_pd_l + i_pu_l - i_ax_l
            fqb = i_pd_r + i_pu_r - i_ax_r
            j11 = dd_pd_l + dd_pu_l - ds_ax_l      # dfq/dvq
            j12 = dg_pd_l + dg_pu_l                # dfq/dvqb
            j21 = dg_pd_r + dg_pu_r                # dfqb/dvq
            j22 = dd_pd_r + dd_pu_r - ds_ax_r      # dfqb/dvqb
            return fq, fqb, j11, j12, j21, j22

        if stored_zero_at_q:
            init_q, init_qb = 0.05, vdd
        else:
            init_q, init_qb = vdd, 0.05

        # Flatten the batch so straggler compaction below stays simple.
        n_batch = int(np.prod(batch_shape)) if batch_shape else 1
        d_flat = {
            name: np.reshape(
                np.broadcast_to(np.asarray(val, dtype=np.float64), batch_shape),
                (n_batch,),
            )
            for name, val in d.items()
        }
        vq = np.full((n_batch,), float(init_q), dtype=np.float64)
        vqb = np.full((n_batch,), float(init_qb), dtype=np.float64)

        # Residual tolerance: device currents are ~1e-4 A and node
        # conductances ~1e-4 S, so 3e-11 A resolves node voltages to well
        # under a microvolt — far tighter than any metric needs, yet loose
        # enough that near-fold (read-upset boundary) points, where Newton
        # slows to linear convergence, still terminate quickly.
        tol = 3e-11
        step_cap = 0.1

        def newton_pass(vq, vqb, deltas, iterations):
            converged = np.zeros(vq.shape, dtype=np.bool)
            for _ in range(iterations):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb, deltas)
                converged = (np.abs(fq) < tol) & (np.abs(fqb) < tol)
                if bool(np.all(converged)):
                    break
                det = j11 * j22 - j12 * j21
                safe = np.abs(det) > 1e-30
                inv_det = np.where(safe, 1.0 / np.where(safe, det, 1.0), 0.0)
                dvq = np.clip(-(j22 * fq - j12 * fqb) * inv_det, -step_cap, step_cap)
                dvqb = np.clip(-(-j21 * fq + j11 * fqb) * inv_det, -step_cap, step_cap)
                vq = np.clip(vq + np.where(converged, 0.0, dvq), -0.2, vdd + 0.2)
                vqb = np.clip(vqb + np.where(converged, 0.0, dvqb), -0.2, vdd + 0.2)
            return vq, vqb, converged

        # Phase 1: a short full-batch Newton settles the vast majority.
        first_pass = min(14, newton_iterations)
        vq, vqb, converged = newton_pass(vq, vqb, d_flat, first_pass)

        if not bool(np.all(converged)):
            # Phase 2: compact the stragglers — mostly read-upset cases
            # where the stored state no longer exists and Newton oscillates
            # around the fold — and resolve them with the monotone
            # fixed-point construction, which has no critical slowing.
            idx = np.nonzero(~converged)[0]
            d_sub = {name: val[idx] for name, val in d_flat.items()}
            vq_s, vqb_s = self._read_fixed_point(
                d_sub, stored_zero_at_q, int(idx.shape[0])
            )
            vq[idx] = vq_s
            vqb[idx] = vqb_s

        return np.reshape(vq, batch_shape), np.reshape(vqb, batch_shape)

    def _read_fixed_point(self, delta, stored_zero_at_q, n_batch,
                          n_grid=33, bisect_iters=30):
        """The least-fixed-point construction with sequential bisection."""
        vdd = self.vdd
        if stored_zero_at_q:
            near, far = "left", "right"
        else:
            near, far = "right", "left"

        def loop_map(v_low):
            """phi: low-node voltage -> far response -> near response."""
            shape = np.shape(v_low)
            far_res = self._half_cell_residual(far, v_low, vdd, vdd, delta, shape)
            v_far = _solve_monotone_node(far_res, -0.2, vdd + 0.2, shape)
            near_res = self._half_cell_residual(near, v_far, vdd, vdd, delta, shape)
            v_near = _solve_monotone_node(near_res, -0.2, vdd + 0.2, shape)
            return v_near, v_far

        grid = np.linspace(-0.1, vdd + 0.1, n_grid)
        grid_b = np.broadcast_to(grid[:, None], (n_grid, n_batch))
        phi, _ = loop_map(grid_b)
        psi = phi - grid_b
        # First + -> - transition: psi starts positive (phi maps the range
        # into itself) and ends negative.
        negative = psi < 0.0
        first_neg = np.argmax(negative.astype(np.int64), axis=0)
        first_neg = np.clip(first_neg, 1, n_grid - 1)
        lo = grid[first_neg - 1]
        hi = grid[first_neg]
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            phi_mid, _ = loop_map(mid)
            above = phi_mid >= mid
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        v_low = 0.5 * (lo + hi)
        _, v_far = loop_map(v_low)
        # Evaluate the near node once more so (v_low, v_far) is an exact
        # consistent pair at the fixed point.
        near_res = self._half_cell_residual(
            near, v_far, vdd, vdd, delta, np.shape(v_low)
        )
        v_low = _solve_monotone_node(near_res, -0.2, vdd + 0.2, np.shape(v_low))
        if stored_zero_at_q:
            return v_low, v_far
        return v_far, v_low


def _newton_counted(fn):
    """``fn()`` under a fresh recorder: (result, lane_solves, lane_iters)."""
    recorder = telemetry.Recorder(run_id="newton-counts")
    with telemetry.activate(recorder):
        result = fn()
    counters = recorder.counters
    return (result, counters.get("newton.lane_solves", 0),
            counters.get("newton.lane_iters", 0))


def _assert_same_solves(fused, oracle):
    """Same arrays bit for bit, and the same Newton lane work."""
    (got, solves, iters), (want, ref_solves, ref_iters) = fused, oracle
    for g, w in zip(got if isinstance(got, tuple) else (got,),
                    want if isinstance(want, tuple) else (want,)):
        np.testing.assert_array_equal(g, w)
    assert (solves, iters) == (ref_solves, ref_iters)


class TestActiveSetSolverBitIdentity:
    """The active-set rewrite must reproduce the old loop exactly."""

    def _compare_on_cell(self, cell, delta):
        grid = np.linspace(0.0, 1.2, 9)
        batch = np.broadcast_shapes(*(np.shape(d) for d in delta.values()))
        shape = (grid.size,) + batch
        vin = grid.reshape((-1,) + (1,) * len(batch))
        residual = cell._half_cell_residual("left", vin, 1.2, 1.2, delta, shape)
        new = _solve_monotone_node(residual, -0.2, 1.4, shape)
        old = _solve_monotone_node_reference(
            lambda v: residual(v, None), -0.2, 1.4, shape
        )
        np.testing.assert_array_equal(new, old)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=12, deadline=None)
    def test_property_battery_random_mismatch(self, seed):
        cell = SixTransistorCell()
        gen = np.random.default_rng(seed)
        delta = {
            name: gen.normal(0.0, 0.08, size=6) for name in DEVICE_NAMES
        }
        self._compare_on_cell(cell, delta)

    def test_collapsed_lobe_cells(self, cell):
        """Extreme mismatch (destroyed lobes, slow-converging lanes) mixed
        with benign lanes — the regime the early exit targets."""
        delta = {
            "pd_l": np.array([0.0, 0.5, -0.3, 0.02]),
            "ax_l": np.array([0.0, -0.4, 0.35, -0.01]),
            "pu_l": np.array([0.0, 0.3, -0.45, 0.0]),
        }
        self._compare_on_cell(cell, delta)

    def test_synthetic_monotone_residual(self):
        """Analytic cubic residual: exercises Newton steps, bisection
        fallbacks and per-lane convergence spread without any devices."""
        gen = np.random.default_rng(0)
        roots = gen.uniform(-0.1, 1.3, 64)
        scale = gen.uniform(1e-3, 10.0, 64)

        def residual_new(v, idx=None):
            r = roots if idx is None else roots[idx]
            s = scale if idx is None else scale[idx]
            d = v - r
            return s * d**3 + 0.5 * d, s * 3 * d**2 + 0.5

        new = _solve_monotone_node(residual_new, -0.2, 1.4, (64,))
        old = _solve_monotone_node_reference(
            lambda v: residual_new(v, None), -0.2, 1.4, (64,)
        )
        np.testing.assert_array_equal(new, old)
        np.testing.assert_allclose(new, roots, atol=1e-6)

    def test_warm_start_agrees_within_tolerance(self):
        """A warm start changes the Newton path, never the answer beyond
        the solver tolerance — and a *bad* warm start stays safe because
        the bracket remains the full interval."""
        gen = np.random.default_rng(1)
        roots = gen.uniform(0.0, 1.2, 32)

        def residual(v, idx=None):
            r = roots if idx is None else roots[idx]
            return v - r, np.ones_like(v)

        cold = _solve_monotone_node(residual, -0.2, 1.4, (32,))
        warm = _solve_monotone_node(residual, -0.2, 1.4, (32,), v0=roots + 0.01)
        bad = _solve_monotone_node(
            residual, -0.2, 1.4, (32,), v0=np.full(32, 99.0)
        )
        np.testing.assert_allclose(warm, cold, atol=1e-9)
        np.testing.assert_allclose(bad, cold, atol=1e-9)


class TestConstruction:
    def test_device_names_paper_order(self):
        assert DEVICE_NAMES == ("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")
        assert PAPER_INDEX["M1"] == 0 and PAPER_INDEX["M3"] == 2 and PAPER_INDEX["M5"] == 4

    def test_sigma_per_device(self, cell):
        assert cell.sigma_vth["pu_l"] > cell.sigma_vth["ax_l"] > cell.sigma_vth["pd_l"]

    def test_geometry_override(self):
        c = SixTransistorCell(geometries={"access": DeviceGeometry(0.4, 0.1)})
        assert c.geometries["access"].width == pytest.approx(0.4)

    def test_unknown_geometry_role_raises(self):
        with pytest.raises(KeyError, match="unknown geometry roles"):
            SixTransistorCell(geometries={"nonsense": DeviceGeometry(0.1, 0.1)})

    def test_repr(self, cell):
        assert "SixTransistorCell" in repr(cell)


class TestHalfCellVtc:
    def test_monotone_decreasing(self, cell):
        grid = np.linspace(0, 1.2, 41)
        vtc = cell.half_cell_vtc("left", grid, bl_voltage=1.2)
        assert vtc.shape == (41,)
        assert np.all(np.diff(vtc) < 1e-9)

    def test_read_low_level_raised_by_access(self, cell):
        """During read the access transistor pulls the low node up — the
        classic read-disturb mechanism."""
        grid = np.array([1.2])
        v_read = cell.half_cell_vtc("left", grid, bl_voltage=1.2)[0]
        v_hold = cell.half_cell_vtc("left", grid, bl_voltage=1.2, wl_voltage=0.0)[0]
        assert v_read > v_hold + 0.05
        assert v_hold < 0.02

    def test_write_config_collapses_high_level(self, cell):
        grid = np.array([0.0])
        v_read = cell.half_cell_vtc("left", grid, bl_voltage=1.2)[0]
        v_write = cell.half_cell_vtc("left", grid, bl_voltage=0.0)[0]
        assert v_read > 1.1      # read config: output high ~ vdd
        assert v_write < 0.3     # write config: bitline wins

    def test_batched_mismatch(self, cell):
        grid = np.linspace(0, 1.2, 21)
        dv = {"pd_l": np.array([-0.05, 0.0, 0.05])}
        vtc = cell.half_cell_vtc("left", grid, 1.2, dv)
        assert vtc.shape == (21, 3)
        # Weaker pull-down (higher vth) -> higher low level at full input.
        assert vtc[-1, 2] > vtc[-1, 0]

    def test_sides_symmetric_nominal(self, cell):
        grid = np.linspace(0, 1.2, 21)
        left = cell.half_cell_vtc("left", grid, 1.2)
        right = cell.half_cell_vtc("right", grid, 1.2)
        np.testing.assert_allclose(left, right, atol=1e-9)

    def test_invalid_side_raises(self, cell):
        with pytest.raises(ValueError, match="side"):
            cell.half_cell_vtc("top", np.linspace(0, 1, 5), 1.2)

    def test_2d_grid_raises(self, cell):
        with pytest.raises(ValueError, match="1-D"):
            cell.half_cell_vtc("left", np.zeros((2, 2)), 1.2)

    def test_kcl_residual_zero_at_solution(self, cell):
        grid = np.linspace(0, 1.2, 11)
        vtc = cell.half_cell_vtc("left", grid, 1.2)
        residual = cell._half_cell_residual(
            "left", grid, 1.2, 1.2, {}, grid.shape
        )
        f, _ = residual(vtc)
        assert np.max(np.abs(f)) < 1e-10

    def test_residual_subset_matches_full(self, cell):
        """Active-set contract: evaluating a lane subset must be identical
        to evaluating all lanes and slicing."""
        grid = np.linspace(0, 1.2, 11)
        residual = cell._half_cell_residual(
            "left", grid, 1.2, 1.2, {}, grid.shape
        )
        v = np.linspace(0.1, 1.1, 11)
        idx = np.array([0, 3, 7, 10])
        f_all, df_all = residual(v)
        f_sub, df_sub = residual(v[idx], idx)
        np.testing.assert_array_equal(f_sub, f_all[idx])
        np.testing.assert_array_equal(df_sub, df_all[idx])


def _mixed_rows(n, dim, seed):
    """Whitened samples with every third row far in the tail, so
    collapsed-lobe (slow, straggling) lanes sit among benign ones."""
    x = np.random.default_rng(seed).standard_normal((n, dim))
    x[::3] *= 6.0
    return x


#: Rows of one two-side block on the metrics' 81-point grid.
_BLOCK_ROWS = _VTC_BLOCK_LANES // (2 * 81)


class TestFusedKernelMatchesPerSideOracle:
    """Solving both butterfly sides in one Newton loop, with the stacked
    device evaluation, reproduces the per-side per-device kernel bit for
    bit — and does the same Newton work, lane for lane."""

    METRICS = {
        "rnm": ReadNoiseMarginMetric,
        "wnm": WriteNoiseMarginMetric,
        "hold": HoldNoiseMarginMetric,
    }

    @pytest.mark.parametrize("rows", [1, 2, 7, _BLOCK_ROWS + 5])
    @pytest.mark.parametrize("name", sorted(METRICS))
    def test_margin_metrics(self, name, rows):
        fused = self.METRICS[name](SixTransistorCell())
        oracle = self.METRICS[name](ReferenceCell())
        x = _mixed_rows(rows, 6, seed=rows)
        _assert_same_solves(
            _newton_counted(lambda: fused(x)), _newton_counted(lambda: oracle(x))
        )

    @pytest.mark.parametrize("n_grid", [9, 81])
    def test_two_side_vtc(self, cell, n_grid):
        """Direct call with a 2-D batch, the write configuration's split
        bitlines, and grids with and without the coarse pass."""
        gen = np.random.default_rng(n_grid)
        deltas = {name: gen.normal(0.0, 0.12, (3, 4)) for name in DEVICE_NAMES}
        grid = np.linspace(0.0, cell.vdd, n_grid)
        sides = (("left", 0.0), ("right", cell.vdd))
        _assert_same_solves(
            _newton_counted(lambda: cell.half_cell_vtc(
                ("left", "right"), grid, (0.0, cell.vdd), deltas)),
            _newton_counted(lambda: tuple(
                _half_cell_vtc_reference(cell, s, grid, b, deltas) for s, b in sides)),
        )

    @pytest.mark.parametrize("n_grid", [9, 81])
    def test_one_side_seeded(self, cell, n_grid):
        """A seeded side skips the coarse pass while the other runs it (or,
        on a grid too short to thin, starts at the bracket midpoint)."""
        gen = np.random.default_rng(4)
        deltas = {name: gen.normal(0.0, 0.1, 5) for name in DEVICE_NAMES}
        grid = np.linspace(0.0, cell.vdd, n_grid)
        seed = cell.half_cell_vtc("left", grid, cell.vdd, deltas) + 0.003
        _assert_same_solves(
            _newton_counted(lambda: cell.half_cell_vtc(
                ("left", "right"), grid, (cell.vdd, cell.vdd), deltas,
                v0=(seed, None))),
            _newton_counted(lambda: (
                _half_cell_vtc_reference(cell, "left", grid, cell.vdd, deltas, v0=seed),
                _half_cell_vtc_reference(cell, "right", grid, cell.vdd, deltas),
            )),
        )

    def test_unmatched_sides_solved_apart(self):
        """A cell whose right devices differ from its left ones still gets
        each side's own curve."""
        cell = SixTransistorCell()
        params = cell.devices["pd_r"].params
        cell.devices["pd_r"] = type(cell.devices["pd_r"])(
            params.with_vth_shift(0.05)
        )
        gen = np.random.default_rng(6)
        deltas = {name: gen.normal(0.0, 0.1, 3) for name in DEVICE_NAMES}
        grid = np.linspace(0.0, cell.vdd, 81)
        _assert_same_solves(
            _newton_counted(lambda: cell.half_cell_vtc(
                ("left", "right"), grid, (cell.vdd, cell.vdd), deltas)),
            _newton_counted(lambda: tuple(
                _half_cell_vtc_reference(cell, s, grid, cell.vdd, deltas)
                for s in ("left", "right"))),
        )

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_stacked_residual_matches_per_device(self, cell, monkeypatch, offset):
        """Active sets on both sides of the lane-count crossover, evaluated
        stacked, per device and by the oracle, agree bit for bit."""
        n_active = cell_module._STACKED_MAX_LANES + offset
        rows = n_active // 81 + 2
        gen = np.random.default_rng(n_active)
        deltas = {name: gen.normal(0.0, 0.12, rows) for name in DEVICE_NAMES}
        grid = np.linspace(0.0, cell.vdd, 81)
        shape = (81, rows)
        bls = (0.0, cell.vdd)
        residual = cell._half_cell_residual(
            ("left", "right"), grid[:, None], bls, cell.vdd, deltas, shape
        )
        per_side = 81 * rows
        idx = np.sort(gen.choice(2 * per_side, n_active, replace=False))
        v = gen.uniform(-0.2, cell.vdd + 0.2, n_active)
        natural = residual(v, idx)
        monkeypatch.setattr(cell_module, "_STACKED_MAX_LANES", 2 * per_side + 1)
        stacked = residual(v, idx)
        monkeypatch.setattr(cell_module, "_STACKED_MAX_LANES", 0)
        per_device = residual(v, idx)
        want = [np.empty(n_active), np.empty(n_active)]
        for k, (side, bl) in enumerate(zip(("left", "right"), bls)):
            lane = (idx // per_side) == k
            ref = _half_cell_residual_reference(
                cell, side, grid[:, None], bl, cell.vdd, deltas, shape
            )
            f, dfdv = ref(v[lane], idx[lane] - k * per_side)
            want[0][lane], want[1][lane] = f, dfdv
        for got in (natural, stacked, per_device):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    def test_read_state_straggler_path(self, stored_zero_at_q):
        """Read-upset samples leave Newton unconverged and run the
        fixed-point construction, built on the same residual."""
        fused = fragile_cell()
        oracle = ReferenceCell(fused.technology, fused.geometries)
        low = "_l" if stored_zero_at_q else "_r"
        dv = {
            "pd" + low: np.array([0.0, 0.5, 0.45, 0.6, 0.02, 0.55]),
            "ax" + low: np.array([0.0, -0.4, -0.35, -0.45, 0.01, -0.3]),
        }
        got = _newton_counted(lambda: fused.solve_read_state(dv, stored_zero_at_q))
        _assert_same_solves(
            got, _newton_counted(lambda: oracle.solve_read_state(dv, stored_zero_at_q))
        )
        assert got[1] > 0  # the straggler path ran
        sequential = SequentialReadCell(fused.technology, fused.geometries)
        for g, w in zip(got[0], sequential.solve_read_state(dv, stored_zero_at_q)):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("name,rows", [("rnm", 5), ("wnm", 5), ("rnm", _BLOCK_ROWS + 5)])
    def test_warm_carrier_path(self, name, rows):
        """Cross-round warm seeds reach both sides under their own keys,
        block by block."""
        fused = self.METRICS[name](SixTransistorCell())
        oracle = self.METRICS[name](ReferenceCell())
        x = _mixed_rows(rows, 6, seed=11)

        def rounds(metric):
            values = []
            with warm.use_carrier(warm.SolverStateCarrier()):
                for step in range(3):
                    warm.set_lanes(np.arange(rows))
                    values.append(metric(x + 0.05 * step))
            return tuple(values)

        _assert_same_solves(
            _newton_counted(lambda: rounds(fused)),
            _newton_counted(lambda: rounds(oracle)),
        )


    def test_warm_keys_hold_their_own_side(self):
        """Each side's converged VTC is stored under that side's key."""
        metric = WriteNoiseMarginMetric(SixTransistorCell())
        x = _mixed_rows(4, 6, seed=12)
        carrier = warm.SolverStateCarrier()
        with warm.use_carrier(carrier):
            warm.set_lanes(np.arange(4))
            metric(x)
        deltas = metric.mismatch.deltas(x)
        for key, side, bl in (("wnm-left", "left", 0.0),
                              ("wnm-right", "right", metric.cell.vdd)):
            np.testing.assert_array_equal(
                carrier.seed(key, np.arange(4)),
                _half_cell_vtc_reference(metric.cell, side, metric.grid, bl, deltas),
            )


def _read_upset_deltas(n, stored_zero_at_q, seed):
    """Mismatch of ``n`` fragile-cell samples in the read-upset wedge (weak
    pull-down, strong access on the low side), most of which leave the
    read-state Newton pass unconverged."""
    gen = np.random.default_rng(seed)
    low = "_l" if stored_zero_at_q else "_r"
    deltas = {name: gen.normal(0.0, 0.02, n) for name in DEVICE_NAMES}
    deltas["pd" + low] = gen.uniform(0.35, 0.6, n)
    deltas["ax" + low] = gen.uniform(-0.45, -0.3, n)
    return deltas


def _depth_switch_counts():
    """Straggler counts one below, at and one above the largest count each
    speculative bisection depth serves."""
    counts, depth = set(), 1
    while cell_module._BISECT_ROUND_LANES // ((1 << depth) - 1):
        top = cell_module._BISECT_ROUND_LANES // ((1 << depth) - 1)
        counts.update((top - 1, top, top + 1))
        depth += 1
    return counts - {0}


#: Straggler counts of the fixed-point oracle battery: Gibbs-sized calls,
#: every depth switch, and an importance-sampling shard's ~870.
_STRAGGLER_COUNTS = sorted(_depth_switch_counts() | {1, 2, 8, 33, 870})


def _assert_same_read_state(fused, oracle, deltas, stored_zero_at_q):
    """Bit-equal ``(v_q, v_qb)``, and read currents when ``q`` stores 0."""
    for got, want in zip(fused.solve_read_state(deltas, stored_zero_at_q),
                         oracle.solve_read_state(deltas, stored_zero_at_q)):
        np.testing.assert_array_equal(got, want)
    if stored_zero_at_q:
        np.testing.assert_array_equal(fused.read_current(deltas),
                                      oracle.read_current(deltas))


class TestReadStateMatchesSequentialOracle:
    """The stacked read-state Newton pass, the speculative bisection tree
    and the hoisted half-cell residual reproduce the pre-change read path
    (:class:`SequentialReadCell`) bit for bit."""

    @pytest.fixture(scope="class")
    def cells(self):
        fused = fragile_cell()
        return fused, SequentialReadCell(fused.technology, fused.geometries)

    @pytest.fixture(scope="class")
    def stragglers(self, cells):
        """Per stored state, a pool of read-upset samples Newton leaves
        unconverged: the mismatch the fixed point receives."""
        oracle = SequentialReadCell(cells[0].technology, cells[0].geometries)
        pools = {}
        for stored_zero_at_q in (True, False):
            seen = []
            oracle._read_fixed_point = lambda d, *args: seen.append(d) or (0.0, 0.0)
            oracle.solve_read_state(_read_upset_deltas(1100, stored_zero_at_q, seed=3),
                                    stored_zero_at_q)
            (pools[stored_zero_at_q],) = seen
        return pools

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n", _STRAGGLER_COUNTS)
    def test_fixed_point_matches_sequential_bisection(self, cells, n, stored_zero_at_q):
        fused, oracle = cells
        delta = _read_upset_deltas(n, stored_zero_at_q, seed=n)
        for got, want in zip(fused._read_fixed_point(delta, stored_zero_at_q, n),
                             oracle._read_fixed_point(delta, stored_zero_at_q, n)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n_stragglers", [1, 2, 8, 33, 870])
    def test_read_state_with_stragglers(self, cells, stragglers, monkeypatch,
                                        n_stragglers, stored_zero_at_q):
        """Stragglers mixed into a batch of lanes Newton converges."""
        fused, oracle = cells
        pool = stragglers[stored_zero_at_q]
        benign = np.random.default_rng(n_stragglers).normal(0.0, 0.03, (6, 40))
        deltas = {name: np.concatenate([b[:20], pool[name][:n_stragglers], b[20:]])
                  for name, b in zip(DEVICE_NAMES, benign)}
        seen = []
        fixed_point = fused._read_fixed_point
        monkeypatch.setattr(fused, "_read_fixed_point",
                            lambda d, *args: seen.append(len(d["pd_l"])) or fixed_point(d, *args))
        _assert_same_read_state(fused, oracle, deltas, stored_zero_at_q)
        assert set(seen) == {n_stragglers}

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_newton_pass_across_stacking_crossover(self, cells, stragglers, offset,
                                                   stored_zero_at_q):
        """Batches just below, at and above the six-device crossover, with
        a few stragglers among Monte-Carlo lanes."""
        rows = cell_module._READ_STACKED_MAX_LANES + offset
        gen = np.random.default_rng(rows)
        deltas = {name: gen.normal(0.0, 0.05, rows) for name in DEVICE_NAMES}
        at = gen.choice(rows, 5, replace=False)
        for name in DEVICE_NAMES:
            deltas[name][at] = stragglers[stored_zero_at_q][name][:5]
        _assert_same_read_state(*cells, deltas, stored_zero_at_q)


class TestBatchIndependence:
    """Regression: results must not depend on batch composition.

    An early version of the monotone node solver could hurl an
    already-converged lane to the midpoint of a stale bracket when slower
    batch-mates kept the iteration alive — every batched analysis silently
    depended on its companions (caught via importance-sampling weight
    explosions on the write-margin metric).
    """

    def test_vtc_alone_equals_in_mixed_batch(self, cell, rng):
        grid = np.linspace(0, 1.2, 41)
        # A benign sample paired with an extreme one that converges slowly.
        benign = {name: 0.02 for name in DEVICE_NAMES}
        mixed = {
            name: np.array([0.02, 0.35 if name == "pd_l" else -0.25])
            for name in DEVICE_NAMES
        }
        alone = cell.half_cell_vtc(
            "left", grid, 0.0, {k: np.array([v]) for k, v in benign.items()}
        )
        paired = cell.half_cell_vtc("left", grid, 0.0, mixed)
        np.testing.assert_allclose(paired[:, 0], alone[:, 0], atol=1e-9)

    def test_metric_chunk_vs_single(self, wnm_metric, rng):
        x = rng.uniform(-5, 5, (64, 6))
        chunked = wnm_metric(x)
        singles = np.concatenate([wnm_metric(x[i : i + 1]) for i in range(64)])
        np.testing.assert_allclose(chunked, singles, atol=1e-9)


class TestReadState:
    def test_nominal_holds_stored_zero(self, cell):
        vq, vqb = cell.solve_read_state()
        assert float(vq) < 0.45
        assert float(vqb) > 1.1

    def test_stored_one_mirrors(self, cell):
        vq, vqb = cell.solve_read_state(stored_zero_at_q=False)
        assert float(vq) > 1.1
        assert float(vqb) < 0.45

    def test_batched(self, cell):
        dv = {"pd_l": np.linspace(-0.05, 0.05, 5)}
        vq, vqb = cell.solve_read_state(dv)
        assert vq.shape == (5,)
        # Weaker pull-down lets the access raise the low node further.
        assert np.all(np.diff(vq) > 0)

    def test_extreme_mismatch_flips_cell(self, skewed_cell):
        """Large (weak pull-down, strong access) mismatch must upset the
        read: the solver lands on the flipped state."""
        dv = {"pd_l": np.array([0.0, 0.5]), "ax_l": np.array([0.0, -0.4])}
        vq, _ = skewed_cell.solve_read_state(dv)
        assert vq[0] < 0.5          # nominal holds
        assert vq[1] > 0.8          # upset: q node flipped high

    def test_matches_general_netlist_solver(self, cell):
        """Cross-validation: the specialised read solver must agree with the
        general MNA solver on the full-cell netlist."""
        circuit = cell.build_circuit()
        dv = {"pd_l": 0.03, "ax_l": -0.02}
        sol = solve_dc(
            circuit,
            {"vdd": 1.2, "wl": 1.2, "bl": 1.2, "blb": 1.2},
            element_params={k: {"delta_vth": v} for k, v in dv.items()},
            initial={"q": 0.05, "qb": 1.2},
        )
        vq, vqb = cell.solve_read_state(dv)
        assert float(sol.voltage("q")) == pytest.approx(float(vq), abs=1e-6)
        assert float(sol.voltage("qb")) == pytest.approx(float(vqb), abs=1e-6)


class TestReadCurrent:
    def test_nominal_positive(self, cell):
        i = cell.read_current()
        assert float(i) > 1e-5

    def test_weaker_access_less_current(self, cell):
        dv = {"ax_l": np.array([0.0, 0.1])}
        i = cell.read_current(dv)
        assert i[1] < i[0]

    def test_flip_collapses_current(self, skewed_cell):
        dv = {"pd_l": np.array([0.0, 0.6]), "ax_l": np.array([0.0, -0.4])}
        i = skewed_cell.read_current(dv)
        assert i[0] > 1e-5
        assert i[1] < 1e-6

    def test_deterministic(self, cell):
        dv = {"pd_l": np.array([0.02]), "ax_l": np.array([-0.01])}
        a = cell.read_current(dv)
        b = cell.read_current(dv)
        np.testing.assert_array_equal(a, b)
