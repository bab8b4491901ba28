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
    ReadCurrentMetric,
    ReadNoiseMarginMetric,
    WriteNoiseMarginMetric,
)
from repro.sram.corners import corner_technology
from repro.sram.problems import fragile_cell, read_current_problem


@pytest.fixture(autouse=True)
def cold_far_memo(monkeypatch):
    """Every test starts with the fixed point's nominal far-response memo
    empty, so the Newton work it counts does not depend on test order."""
    monkeypatch.setattr(cell_module, "_FAR_RESPONSES", {})


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
                          n_grid=33, bisect_iters=30, current_tol=None):
        """The least-fixed-point construction with sequential bisection.

        With ``current_tol`` a lane stops at its first bracket whose
        low-node access currents differ by at most that much: the
        read-current stop, taken one step at a time."""
        vdd = self.vdd
        if stored_zero_at_q:
            near, far, low = "left", "right", "_l"
        else:
            near, far, low = "right", "left", "_r"

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
        access = self.devices["ax" + low]
        d_access = delta.get("ax" + low, np.zeros(n_batch))
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            phi_mid, _ = loop_map(mid)
            above = phi_mid >= mid
            if current_tol is None:
                lo = np.where(above, mid, lo)
                hi = np.where(above, hi, mid)
                continue
            i_lo, i_hi = (access.current(vdd, vdd, v, 0.0, d_access) for v in (lo, hi))
            running = ~(i_lo - i_hi <= current_tol)
            lo = np.where(running & above, mid, lo)
            hi = np.where(running & ~above, mid, hi)
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
    def test_read_state_straggler_path(self, monkeypatch, stored_zero_at_q):
        """Read-upset samples leave Newton unconverged and run the
        fixed-point construction, built on the same residual.  With the
        read-current stop disabled, the result is the sequential
        oracle's, bit for bit, with the Newton pass started at the stored
        state as the oracle's is.  These lanes have no far-side mismatch,
        so each solve reads the nominal far response from the memo, which
        it fills cold outside the counted Newton work; the oracle fills its
        own from the per-side residual."""
        monkeypatch.setattr(cell_module, "_READ_CURRENT_TOL", -np.inf)
        _pin_stored_start(monkeypatch)
        fused = fragile_cell()
        oracle = ReferenceCell(fused.technology, fused.geometries)
        low = "_l" if stored_zero_at_q else "_r"
        dv = {
            "pd" + low: np.array([0.0, 0.5, 0.45, 0.6, 0.02, 0.55]),
            "ax" + low: np.array([0.0, -0.4, -0.35, -0.45, 0.01, -0.3]),
        }
        got = _newton_counted(lambda: fused.solve_read_state(dv, stored_zero_at_q))
        assert len(cell_module._FAR_RESPONSES) == 1
        cell_module._FAR_RESPONSES.clear()
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


def _metric_upset_deltas(cell, n, stored_zero_at_q, seed):
    """Mismatch of ``n`` read-upset samples drawn through the read-current
    metric's own mismatch: only ``pd_l`` and ``ax_l`` vary (mirrored to
    ``pd_r`` and ``ax_r`` when ``q`` stores 1), so every lane has the same
    far side."""
    x = np.array([5.0, -4.0]) + 0.3 * np.random.default_rng(seed).standard_normal((n, 2))
    deltas = ReadCurrentMetric(cell).mismatch.deltas(x)
    if stored_zero_at_q:
        return deltas
    return {name.replace("_l", "_r"): d for name, d in deltas.items()}


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


def _pin_stored_start(monkeypatch):
    """Start every read-state Newton lane at the stored state, as the
    oracle's pass does, instead of at its first-order predicted state."""
    monkeypatch.setattr(SixTransistorCell, "_read_start",
                        SixTransistorCell._stored_start)


def _spy_solve_shapes(monkeypatch):
    """Record the shape of every ``_solve_monotone_node`` call."""
    shapes = []
    solve = cell_module._solve_monotone_node

    def spied(residual, lo, hi, shape, **kwargs):
        shapes.append(tuple(shape))
        return solve(residual, lo, hi, shape, **kwargs)

    monkeypatch.setattr(cell_module, "_solve_monotone_node", spied)
    return shapes


def _spy_active_lanes(cell, monkeypatch):
    """Record the lane count of every read-state residual evaluation."""
    counts = []
    factory = cell._read_state_residual

    def spied(d_flat, n_lanes):
        lane_terms, residuals = factory(d_flat, n_lanes)

        def counted(vq, vqb, terms):
            counts.append(int(vq.shape[0]))
            return residuals(vq, vqb, terms)

        return lane_terms, counted

    monkeypatch.setattr(cell, "_read_state_residual", spied)
    return counts


@pytest.fixture(scope="module")
def cells():
    fused = fragile_cell()
    return fused, SequentialReadCell(fused.technology, fused.geometries)


@pytest.fixture(scope="module")
def stragglers(cells):
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


def _chunk_with_stragglers(cell, pool, rows):
    """A read-current Monte-Carlo chunk of ``rows`` lanes with 5 stragglers
    from ``pool`` mixed in."""
    gen = np.random.default_rng(rows)
    mapped = ReadCurrentMetric(cell).mismatch.deltas(gen.standard_normal((rows, 2)))
    deltas = {name: np.array(mapped.get(name, np.zeros(rows)))
              for name in DEVICE_NAMES}
    at = gen.choice(rows, 5, replace=False)
    for name in DEVICE_NAMES:
        deltas[name][at] = pool[name][:5]
    return deltas


class TestReadStateMatchesSequentialOracle:
    """The stacked read-state Newton pass, the speculative bisection tree
    and the hoisted half-cell residual reproduce the pre-change read path
    (:class:`SequentialReadCell`) bit for bit once the read-current stop
    is disabled: the tree then walks all 30 steps, as the oracle does —
    and the Newton pass starts at the stored state, as the oracle's does."""

    @pytest.fixture(autouse=True)
    def no_stop(self, monkeypatch):
        monkeypatch.setattr(cell_module, "_READ_CURRENT_TOL", -np.inf)
        _pin_stored_start(monkeypatch)

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n", _STRAGGLER_COUNTS)
    def test_fixed_point_matches_sequential_bisection(self, cells, n, stored_zero_at_q):
        fused, oracle = cells
        delta = _read_upset_deltas(n, stored_zero_at_q, seed=n)
        for got, want in zip(fused._read_fixed_point(delta, stored_zero_at_q, n),
                             oracle._read_fixed_point(delta, stored_zero_at_q, n)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n", _STRAGGLER_COUNTS)
    def test_fixed_point_on_metric_mismatch(self, cells, n, stored_zero_at_q):
        """Read-upset lanes drawn through the read-current metric's own
        mismatch, where every lane shares the scan's one far solve."""
        fused, oracle = cells
        delta = _metric_upset_deltas(fused, n, stored_zero_at_q, seed=n)
        for got, want in zip(fused._read_fixed_point(delta, stored_zero_at_q, n),
                             oracle._read_fixed_point(delta, stored_zero_at_q, n)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("battery", ["metric", "six devices"])
    @pytest.mark.parametrize("band", [np.inf, 1e-6])
    def test_scan_band_fallback(self, cells, monkeypatch, band, battery,
                                stored_zero_at_q):
        """Grid points whose near residual falls inside the band are
        Newton-solved: with the band at +inf every point is, with a 1 uA
        band some are, and the bits stay the oracle's either way."""
        fused, oracle = cells
        n = 33
        delta = (_metric_upset_deltas(fused, n, stored_zero_at_q, seed=7)
                 if battery == "metric" else _read_upset_deltas(n, stored_zero_at_q, seed=7))
        monkeypatch.setattr(cell_module, "_READ_SCAN_BAND", band)
        got, counts = _read_counts(lambda: fused._read_fixed_point(delta, stored_zero_at_q, n))
        for g, w in zip(got, oracle._read_fixed_point(delta, stored_zero_at_q, n)):
            np.testing.assert_array_equal(g, w)
        points = counts["read.scan_newton_points"]
        if band == np.inf:
            assert points == cell_module._READ_SCAN_POINTS * n
        else:
            assert 0 < points < cell_module._READ_SCAN_POINTS * n

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    def test_scan_shares_far_solve(self, cells, monkeypatch, stored_zero_at_q):
        """The scan's far solve (the fixed point's first Newton solve)
        covers one grid column per distinct far-side mismatch row with
        mismatch: 33 x 870 lanes for 870 stragglers with it per lane.  Rows
        without it read the nominal far response from the memo, whose cold
        fill is a solve of its 33 scan points and 32 cell midpoints, counted
        as ``read.far_memo_lanes``; 870 such stragglers run no scan far
        solve, cold or warm."""
        fused, _ = cells
        shapes = _spy_solve_shapes(monkeypatch)
        n, points = 870, cell_module._READ_SCAN_POINTS
        nominal = _metric_upset_deltas(fused, n, stored_zero_at_q, seed=n)
        for memo in ("cold", "warm"):
            shapes.clear()
            _, counts = _read_counts(
                lambda: fused._read_fixed_point(nominal, stored_zero_at_q, n))
            assert all(shape[0] != points for shape in shapes if len(shape) == 2)
            assert (shapes[0] == (2 * points - 1,)) == (memo == "cold")
            assert counts.get("read.far_memo_lanes") == (2 * points - 1 if memo == "cold"
                                                         else None)
        shapes.clear()
        fused._read_fixed_point(_read_upset_deltas(n, stored_zero_at_q, seed=n),
                                stored_zero_at_q, n)
        assert shapes[0] == (points, n)

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

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("rows", [4096, 1024])
    def test_metric_chunk_with_stragglers(self, cells, stragglers, monkeypatch,
                                          rows, stored_zero_at_q):
        """A read-current Monte-Carlo chunk with 5 stragglers mixed in.  At
        4,096 rows the pass starts per-device, lanes leave it at different
        iterations and it goes stacked below the crossover; at 1,024 rows it
        is stacked throughout.  The stragglers, and any Monte-Carlo lane
        Newton leaves unconverged, run all 14 iterations."""
        fused, oracle = cells
        deltas = _chunk_with_stragglers(fused, stragglers[stored_zero_at_q], rows)
        counts = _spy_active_lanes(fused, monkeypatch)
        _assert_same_read_state(fused, oracle, deltas, stored_zero_at_q)
        # The first solve is the one compared above; read_current solves again.
        counts = counts[:14]
        crossover = cell_module._READ_STACKED_MAX_LANES
        assert counts[0] == rows and counts[-1] >= 5 and len(counts) == 14
        assert len(set(counts)) >= 4
        assert (rows > crossover) == (counts[0] >= crossover)
        assert min(counts) < crossover


#: The read-current example's spec: a cell fails below 35 uA.
_READ_SPEC = read_current_problem().spec.threshold


def _mixed_population(cell):
    """Mismatch of 49,152 read-current lanes: golden Monte-Carlo draws
    plus importance-sampling tails around the read-upset wedge, where most
    lanes straggle, and a widened normal."""
    gen = np.random.default_rng(2011)
    x = np.concatenate(
        [gen.standard_normal((32768, 2))]
        + [np.array(shift) + gen.standard_normal((4096, 2))
           for shift in ((3.0, -3.0), (4.0, -2.0), (2.0, -4.0))]
        + [2.5 * gen.standard_normal((4096, 2))]
    )
    mapped = ReadCurrentMetric(cell).mismatch.deltas(x)
    return {name: np.asarray(mapped.get(name, np.zeros(len(x))))
            for name in DEVICE_NAMES}


def _low_read_current(cell, state, deltas, stored_zero_at_q):
    """Current of the low node's access device in read state ``state``:
    the read current (M3's when ``q`` stores 0)."""
    low = "_l" if stored_zero_at_q else "_r"
    v_low = state[0] if stored_zero_at_q else state[1]
    return cell.devices["ax" + low].current(
        cell.vdd, cell.vdd, v_low, 0.0, deltas.get("ax" + low, 0.0)
    )


def _newton_lanes(cell, deltas, stored_zero_at_q):
    """Mask of the lanes the read-state Newton pass converges: the ones a
    fixed point returning NaN leaves finite."""
    cell._read_fixed_point = lambda d, s, n: (np.full(n, np.nan),) * 2
    try:
        v_q, _ = cell.solve_read_state(deltas, stored_zero_at_q)
    finally:
        del cell._read_fixed_point
    return np.isfinite(v_q)


def _assert_read_current_contract(cell, got, want, deltas, stored_zero_at_q,
                                  newton=None):
    """Read currents within ``_READ_CURRENT_TOL`` of the oracle's, the same
    pass/fail at the spec, and the ``newton`` lanes bit for bit."""
    i_got = _low_read_current(cell, got, deltas, stored_zero_at_q)
    i_want = _low_read_current(cell, want, deltas, stored_zero_at_q)
    assert np.max(np.abs(i_got - i_want)) <= cell_module._READ_CURRENT_TOL
    np.testing.assert_array_equal(i_got < _READ_SPEC, i_want < _READ_SPEC)
    if newton is not None:
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[newton], w[newton])


def _bisect_counts(fn):
    """``fn()`` under a fresh recorder: (result, straggler lanes, steps)."""
    recorder = telemetry.Recorder(run_id="bisect-steps")
    with telemetry.activate(recorder):
        result = fn()
    counters = recorder.counters
    return (result, counters.get("read.fixed_point_lanes", 0),
            counters.get("read.bisect_steps", 0))


class TestReadCurrentTolerance:
    """With the stop on, a straggler bisects only until its bracket bounds
    the read current within ``_READ_CURRENT_TOL``: every lane's read
    current is within it of the sequential oracle's, its pass/fail at the
    35 uA spec is the oracle's, and the lanes the Newton pass converges
    are the oracle's, bit for bit."""

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n", _STRAGGLER_COUNTS)
    def test_fixed_point_within_tolerance(self, cells, n, stored_zero_at_q):
        fused, oracle = cells
        delta = _read_upset_deltas(n, stored_zero_at_q, seed=n)
        _assert_read_current_contract(
            fused, fused._read_fixed_point(delta, stored_zero_at_q, n),
            oracle._read_fixed_point(delta, stored_zero_at_q, n),
            delta, stored_zero_at_q,
        )

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("rows", [4096, 1024])
    def test_metric_chunk_within_tolerance(self, cells, stragglers, rows,
                                           stored_zero_at_q, monkeypatch):
        _pin_stored_start(monkeypatch)
        fused, oracle = cells
        deltas = _chunk_with_stragglers(fused, stragglers[stored_zero_at_q], rows)
        newton = _newton_lanes(fused, deltas, stored_zero_at_q)
        assert np.count_nonzero(~newton) >= 5
        _assert_read_current_contract(
            fused, fused.solve_read_state(deltas, stored_zero_at_q),
            oracle.solve_read_state(deltas, stored_zero_at_q),
            deltas, stored_zero_at_q, newton,
        )

    def test_mixed_population(self, cells, monkeypatch):
        """49,152 read-current lanes: golden Monte-Carlo draws plus
        importance-sampling tails around the read-upset wedge, where most
        lanes straggle, and a widened normal."""
        _pin_stored_start(monkeypatch)
        fused, oracle = cells
        deltas = _mixed_population(fused)
        newton = _newton_lanes(fused, deltas, True)
        (got, lanes, steps) = _bisect_counts(lambda: fused.solve_read_state(deltas))
        assert lanes == np.count_nonzero(~newton) > 5000
        assert steps < lanes
        want = oracle.solve_read_state(deltas)
        _assert_read_current_contract(fused, got, want, deltas, True, newton)
        i_want = _low_read_current(fused, want, deltas, True)
        assert 0 < np.count_nonzero(i_want < _READ_SPEC) < len(i_want)

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    def test_bisect_step_counters(self, cells, monkeypatch, stored_zero_at_q):
        """``read.bisect_steps`` counts the steps taken: 30 per straggler
        with the stop disabled, fewer with it on."""
        fused, _ = cells
        n = 33
        delta = _read_upset_deltas(n, stored_zero_at_q, seed=5)
        _, lanes, steps = _bisect_counts(
            lambda: fused._read_fixed_point(delta, stored_zero_at_q, n))
        assert lanes == n and steps < 30 * n
        monkeypatch.setattr(cell_module, "_READ_CURRENT_TOL", -np.inf)
        _, lanes, steps = _bisect_counts(
            lambda: fused._read_fixed_point(delta, stored_zero_at_q, n))
        assert (lanes, steps) == (n, 30 * n)

    def test_scan_newton_points_counter(self, cells):
        """``read.scan_newton_points`` counts the scan's grid points inside
        the residual band, Newton-solved; on the read-upset battery the
        residual's sign decides every point, and the ``--verbose``
        summary lists the zero."""
        fused, _ = cells
        n = 33
        delta = _read_upset_deltas(n, True, seed=5)
        recorder = telemetry.Recorder(run_id="scan-points")
        with telemetry.activate(recorder):
            fused._read_fixed_point(delta, True, n)
        assert recorder.counters["read.scan_newton_points"] == 0
        assert "read.scan_newton_points" in recorder.summary()


def _bisected_and_unbisected_deltas(cell, n, stored_zero_at_q, seed):
    """Read-current metric mismatch of ``n`` fixed-point lanes, none with
    far-side mismatch: even lanes read-upset (flipped, their current
    collapsed, so they leave the scan within the read-current stop), odd
    lanes golden draws (stored state kept, so they bisect to the stop)."""
    x = np.random.default_rng(seed).standard_normal((n, 2))
    x[::2] = np.array([5.0, -4.0]) + 0.3 * x[::2]
    deltas = ReadCurrentMetric(cell).mismatch.deltas(x)
    if stored_zero_at_q:
        return deltas
    return {name.replace("_l", "_r"): d for name, d in deltas.items()}


def _fragile_corner_cell(corner):
    """The read-fragile cell at a global process corner, built as the
    service builds its corner problems."""
    cell = fragile_cell()
    return SixTransistorCell(corner_technology(corner, base=cell.technology),
                             cell.geometries)


class TestNominalFarMemo:
    """Fixed-point lanes without far-side mismatch read the far half-cell's
    response from a memo of the nominal far side at the scan points and at
    the scan cells' midpoints, filled by the first call that needs it.
    Results are the sequential oracle's, stopped at the read-current
    tolerance one step at a time, bit for bit, with the memo cold or warm."""

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n", _STRAGGLER_COUNTS)
    def test_cold_and_warm_match_sequential_oracle(self, cells, monkeypatch, n,
                                                   stored_zero_at_q):
        fused, oracle = cells
        delta = _bisected_and_unbisected_deltas(fused, n, stored_zero_at_q, seed=n)
        bisecting = []
        depth = cell_module._bisection_depth
        monkeypatch.setattr(cell_module, "_bisection_depth",
                            lambda lanes: bisecting.append(lanes) or depth(lanes))
        shapes = _spy_solve_shapes(monkeypatch)
        cold = fused._read_fixed_point(delta, stored_zero_at_q, n)
        assert len(cell_module._FAR_RESPONSES) == 1
        bisected = bisecting[0] if bisecting else 0
        if n > 1:
            assert 0 < bisected < n  # both kinds of lane in one batch
        shapes.clear()
        warm = fused._read_fixed_point(delta, stored_zero_at_q, n)
        # The final loop-map evaluation solves the far side of the lanes
        # that bisected only; the others read their cell's midpoint.
        assert shapes[-2:] == [(bisected,), (n,)] if bisected else shapes == [(n,)]
        want = oracle._read_fixed_point(delta, stored_zero_at_q, n,
                                        current_tol=cell_module._READ_CURRENT_TOL)
        for c, w, o in zip(cold, warm, want):
            np.testing.assert_array_equal(c, o)
            np.testing.assert_array_equal(w, o)

    def test_memo_keyed_by_cell_design(self):
        """TT and FF read-fragile cells solved alternately each match their
        own oracle: each design and far side has its own entry."""
        fused = {corner: _fragile_corner_cell(corner) for corner in ("TT", "FF")}
        n = 40
        for _ in range(2):
            for stored_zero_at_q in (True, False):
                for corner, cell in fused.items():
                    oracle = SequentialReadCell(cell.technology, cell.geometries)
                    delta = _bisected_and_unbisected_deltas(cell, n, stored_zero_at_q,
                                                            seed=n)
                    for got, want in zip(
                        cell._read_fixed_point(delta, stored_zero_at_q, n),
                        oracle._read_fixed_point(
                            delta, stored_zero_at_q, n,
                            current_tol=cell_module._READ_CURRENT_TOL),
                    ):
                        np.testing.assert_array_equal(got, want)
        memos = cell_module._FAR_RESPONSES
        assert len(memos) == 4
        tt, ff = (memos[key][1] for key in memos if key[2] == "right")
        assert not np.array_equal(tt, ff)


def _solve_with_stored_start(cell, deltas, stored_zero_at_q):
    """The read state, and the lanes its Newton pass converges, with every
    lane started at the stored state."""
    with pytest.MonkeyPatch.context() as mp:
        _pin_stored_start(mp)
        return (cell.solve_read_state(deltas, stored_zero_at_q),
                _newton_lanes(cell, deltas, stored_zero_at_q))


def _first_order_error(cell, state, deltas, stored_zero_at_q):
    """``|dI/dv_low * (J^-1 f)_low|`` at ``state``: the first-order
    distance of its read current (the low node's access current) from the
    exact root's, with ``J^-1 f`` the Newton step the residuals ask for."""
    v_q, v_qb = (np.asarray(v, dtype=np.float64) for v in state)
    n = int(v_q.shape[0])
    d_flat = {name: np.broadcast_to(np.asarray(deltas.get(name, 0.0), dtype=np.float64),
                                    (n,))
              for name in DEVICE_NAMES}
    terms, residuals = cell._read_state_residual(d_flat, n)
    fq, fqb, j11, j12, j21, j22 = residuals(v_q, v_qb, terms)
    det = j11 * j22 - j12 * j21
    if stored_zero_at_q:
        low, v_low, step = "_l", v_q, (j22 * fq - j12 * fqb) / det
    else:
        low, v_low, step = "_r", v_qb, (j11 * fqb - j21 * fq) / det
    _, _, _, di_dv = cell.devices["ax" + low].current_and_derivs(
        cell.vdd, cell.vdd, v_low, 0.0, d_flat["ax" + low]
    )
    return np.abs(di_dv * step)


#: Slack on the first-order bound: relative, for the second-order terms
#: of the Newton steps (measured up to 2.5e-4 on the ~1.2M-lane bench),
#: and absolute, 1 fA (3e-11 of the 35 uA spec), for lanes whose currents
#: move by femtoamps or less.
_FIRST_ORDER_SLACK = 1e-3
_FIRST_ORDER_FLOOR = 1e-15


def _assert_start_contract(cell, deltas, stored_zero_at_q):
    """The predicted start against the stored one: the same lanes reach
    the fixed point and are bit-identical there, no lane changes pass/fail,
    and every Newton-accepted read current moves by at most the two
    solutions' first-order errors, within the slack.  Returns the Newton
    lanes."""
    want, newton_want = _solve_with_stored_start(cell, deltas, stored_zero_at_q)
    got = cell.solve_read_state(deltas, stored_zero_at_q)
    newton = _newton_lanes(cell, deltas, stored_zero_at_q)
    np.testing.assert_array_equal(newton, newton_want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g[~newton], w[~newton])
    i_got = _low_read_current(cell, got, deltas, stored_zero_at_q)
    i_want = _low_read_current(cell, want, deltas, stored_zero_at_q)
    np.testing.assert_array_equal(i_got < _READ_SPEC, i_want < _READ_SPEC)
    bound = _FIRST_ORDER_FLOOR + (1.0 + _FIRST_ORDER_SLACK) * (
        _first_order_error(cell, got, deltas, stored_zero_at_q)
        + _first_order_error(cell, want, deltas, stored_zero_at_q)
    )
    moved = np.abs(i_got - i_want)
    assert np.all(moved[newton] <= bound[newton]), np.max(moved[newton] / bound[newton])
    return newton


def _read_counts(fn):
    """``fn()`` under a fresh recorder: (result, read-path counters)."""
    recorder = telemetry.Recorder(run_id="read-newton")
    with telemetry.activate(recorder):
        result = fn()
    return result, {key: value for key, value in recorder.counters.items()
                    if key.startswith("read.")}


#: A read-current lane whose stored (~0.473 V) and metastable (~0.487 V)
#: low-node crossings fall inside one 33-point scan cell, (0.469, 0.513) V:
#: the scan misses both and the fixed point returns the flipped state.
_BLIND_SPOT_X = (2.9515, -2.8867)


def _loop_map(cell, v_low, delta):
    """The read loop map ``phi`` with ``q`` low, as the fixed point forms
    it: low node -> right half-cell response -> left one."""
    vdd, shape = cell.vdd, np.shape(v_low)
    far = cell._half_cell_residual("right", v_low, vdd, vdd, delta, shape)
    v_far = _solve_monotone_node(far, -0.2, vdd + 0.2, shape)
    near = cell._half_cell_residual("left", v_far, vdd, vdd, delta, shape)
    return _solve_monotone_node(near, -0.2, vdd + 0.2, shape), v_far


def _least_basin_top(cell, delta, n, points, block=128):
    """Per lane, the top of the least fixed point's basin seen by a
    ``points``-point scan of ``phi(v) - v``: the last grid point before
    the scan turns back non-negative after its first negative point (the
    metastable crossing), or ``inf`` where it never does."""
    grid = np.linspace(-0.1, cell.vdd + 0.1, points)
    top = np.empty(n)
    for s in range(0, n, block):
        sub = {name: d[s:s + block] for name, d in delta.items()}
        k = len(sub["pd_l"])
        phi, _ = _loop_map(cell, np.broadcast_to(grid[:, None], (points, k)), sub)
        negative = phi - grid[:, None] < 0.0
        first = np.argmax(negative, axis=0)
        back = ~negative & (np.arange(points)[:, None] > first)
        top[s:s + k] = np.where(back.any(axis=0), grid[np.argmax(back, axis=0) - 1],
                                np.inf)
    return top


class TestPredictedStart:
    """Each Newton lane starts at its first-order predicted read state.
    Against the stored start: the lanes that reach the fixed point are the
    same and bit-identical there, pass/fail never changes, and a lane
    Newton accepts moves only within the two solutions' first-order
    errors."""

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("n", _STRAGGLER_COUNTS)
    def test_read_upset_lanes(self, cells, n, stored_zero_at_q):
        fused, _ = cells
        _assert_start_contract(fused, _read_upset_deltas(n, stored_zero_at_q, seed=n),
                               stored_zero_at_q)

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    @pytest.mark.parametrize("rows", [4096, 1024])
    def test_metric_chunk(self, cells, stragglers, rows, stored_zero_at_q):
        fused, _ = cells
        deltas = _chunk_with_stragglers(fused, stragglers[stored_zero_at_q], rows)
        newton = _assert_start_contract(fused, deltas, stored_zero_at_q)
        assert np.count_nonzero(~newton) >= 5

    def test_mixed_population(self, cells):
        fused, _ = cells
        newton = _assert_start_contract(fused, _mixed_population(fused), True)
        assert np.count_nonzero(~newton) > 5000

    def test_counters_match_residual_spy(self, cells, stragglers, monkeypatch):
        """``read.newton_lanes`` and ``read.newton_lane_iters`` count the
        lanes entering the pass and the lanes of every residual
        evaluation; no lane of a Monte-Carlo chunk is rejected."""
        fused, _ = cells
        deltas = _chunk_with_stragglers(fused, stragglers[True], 4096)
        fused.solve_read_state(deltas)  # the prediction, once per process
        counts = _spy_active_lanes(fused, monkeypatch)
        _, got = _read_counts(lambda: fused.solve_read_state(deltas))
        assert got["read.newton_lanes"] == counts[0] == 4096
        assert got["read.newton_lane_iters"] == sum(counts)
        assert got["read.start_rejected"] == 0
        assert got["read.fixed_point_lanes"] >= 5
        assert sum(counts) < 3.5 * 4096

    def test_guard_rejects_flipped_root(self, monkeypatch):
        """Started at the flipped state, the blind-spot lane's Newton pass
        converges there; the guard rejects it and the stored-start rerun
        returns the stored state, bit for bit, where the fixed point would
        have returned the flipped state (``TestFixedPointBasin``)."""
        problem = read_current_problem()
        cell = problem.metric.cell
        deltas = problem.metric.mismatch.deltas(np.array([_BLIND_SPOT_X]))
        want, _ = _solve_with_stored_start(cell, deltas, True)
        monkeypatch.setattr(SixTransistorCell, "_read_start",
                            lambda self, d, stored: self._stored_start(d, not stored))
        d_flat = {name: np.asarray(deltas.get(name, np.zeros(1)), dtype=np.float64)
                  for name in DEVICE_NAMES}
        terms, residuals = cell._read_state_residual(d_flat, 1)
        v_q, v_qb, left, rejected = cell._read_newton(
            residuals, terms, *cell._read_start(d_flat, True), guard=True)
        assert left.size == 0 and v_q[0] > v_qb[0] and rejected.tolist() == [0]
        got, counts = _read_counts(lambda: cell.solve_read_state(deltas))
        assert counts["read.start_rejected"] == 1
        assert counts["read.newton_lanes"] == 2
        assert "read.fixed_point_lanes" not in counts
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        i_read = _low_read_current(cell, got, deltas, True)
        assert 48.2e-6 < float(i_read[0]) < 48.4e-6

    def test_guard_rejects_metastable_root(self, monkeypatch):
        """Started at the blind-spot lane's metastable state, Newton
        converges to that saddle (Jacobian determinant < 0); the guard
        rejects it."""
        problem = read_current_problem()
        cell = problem.metric.cell
        deltas = problem.metric.mismatch.deltas(np.array([_BLIND_SPOT_X]))
        d_flat = {name: np.asarray(deltas.get(name, np.zeros(1)), dtype=np.float64)
                  for name in DEVICE_NAMES}
        lo, hi = np.array([0.480]), np.array([0.500])
        for _ in range(40):  # psi rises through the metastable crossing
            mid = 0.5 * (lo + hi)
            rising = _loop_map(cell, mid, d_flat)[0] >= mid
            lo, hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
        v_low = 0.5 * (lo + hi)
        _, v_far = _loop_map(cell, v_low, d_flat)
        terms, residuals = cell._read_state_residual(d_flat, 1)
        v_q, v_qb, left, rejected = cell._read_newton(
            residuals, terms, v_low, v_far, guard=True)
        assert left.size == 0 and rejected.tolist() == [0]
        assert abs(float(v_q[0]) - float(v_low[0])) < 1e-3 and v_q[0] < v_qb[0]
        monkeypatch.setattr(SixTransistorCell, "_read_start",
                            lambda self, d, stored: (v_low, v_far))
        got, counts = _read_counts(lambda: cell.solve_read_state(deltas))
        assert counts["read.start_rejected"] == 1
        for g, w in zip(got, _solve_with_stored_start(cell, deltas, True)[0]):
            np.testing.assert_array_equal(g, w)

    def test_guard_rejects_ghost_at_the_fold(self, monkeypatch):
        """A lane just past the read-upset fold has no stored state, only
        its ghost: psi stays positive.  From the predicted start Newton
        meets the residual tolerance there at a positive determinant; the
        fold margin rejects it, and the stored-start rerun leaves the lane
        to the fixed point, which finds the flipped state, bit for bit as
        with the stored start."""
        problem = read_current_problem()
        cell = problem.metric.cell
        # Lane 29,750 of the 400 x 400 fold grid of
        # benchmarks/bench_read_current_tolerance.py.
        across = np.linspace(4.05, 4.25, 400)[150]
        along = np.linspace(-2.5, 2.5, 400)[74]
        x = np.array([[along + across, along - across]]) / np.sqrt(2.0)
        deltas = problem.metric.mismatch.deltas(x)
        d_flat = {name: np.asarray(deltas.get(name, np.zeros(1)), dtype=np.float64)
                  for name in DEVICE_NAMES}
        grid = np.linspace(0.46, 0.50, 4001)
        phi, _ = _loop_map(cell, grid[:, None], d_flat)
        assert np.min(phi[:, 0] - grid) > 0.0
        want, newton = _solve_with_stored_start(cell, deltas, True)
        assert not newton[0] and want[0][0] > want[1][0]
        got, counts = _read_counts(lambda: cell.solve_read_state(deltas))
        assert counts["read.start_rejected"] == 1
        assert counts["read.fixed_point_lanes"] == 1
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        monkeypatch.setattr(cell_module, "_READ_FOLD_MARGIN", 0.0)
        ghost = cell.solve_read_state(deltas)
        assert ghost[0][0] < ghost[1][0]
        assert _low_read_current(cell, ghost, deltas, True)[0] > _READ_SPEC

    def test_predicted_pass_cap_is_exact(self, monkeypatch):
        """The guarded pass from the predicted start stops at its 10th
        iteration, where the stored-start pass runs 14.  On the fold grid
        of ``TestFixedPointBasin`` and on small populations at the four
        global corners, the default solve equals the solve with that pass
        run to 14 iterations, bit for bit, and evaluates fewer lanes."""
        across, along = np.meshgrid(np.linspace(4.09, 4.17, 41),
                                    np.linspace(-2.0, 2.0, 25))
        fold = np.stack([along + across, along - across], axis=-1).reshape(-1, 2)
        gen = np.random.default_rng(14)
        tails = np.concatenate([np.array([3.0, -3.0]) + gen.standard_normal((1024, 2)),
                                2.5 * gen.standard_normal((1024, 2))])
        cases = [(read_current_problem().metric.cell, fold / np.sqrt(2.0))]
        cases += [(_fragile_corner_cell(corner), tails)
                  for corner in ("FF", "SS", "FS", "SF")]
        for cell, x in cases:
            deltas = ReadCurrentMetric(cell).mismatch.deltas(x)
            cell._read_prediction(True)  # once per process, counted apart
            capped, counts = _read_counts(lambda: cell.solve_read_state(deltas))
            with monkeypatch.context() as mp:
                mp.setattr(cell_module, "_READ_PREDICTED_ITERATIONS", 14)
                full, full_counts = _read_counts(lambda: cell.solve_read_state(deltas))
            for got, want in zip(capped, full):
                np.testing.assert_array_equal(got, want)
            assert counts["read.fixed_point_lanes"] > 0
            assert counts["read.newton_lane_iters"] < full_counts["read.newton_lane_iters"]

    def test_metric_fingerprint_unchanged_by_evaluation(self, monkeypatch):
        """The prediction and the fixed point's nominal far response are
        cached off the cell, so evaluating a metric, stragglers included,
        does not change the pickle its ledgers are keyed by."""
        from repro.parallel.ledger import metric_fingerprint

        monkeypatch.setattr(cell_module, "_READ_PREDICTIONS", {})
        problem = read_current_problem()
        before = metric_fingerprint(problem.metric, problem.spec)
        x = np.zeros((4, 2))
        x[2:] = [5.0, -4.0]  # read-upset stragglers: the fixed point runs
        _, counts = _read_counts(lambda: problem.metric(x))
        assert counts["read.fixed_point_lanes"] == 2
        assert cell_module._READ_PREDICTIONS and cell_module._FAR_RESPONSES
        assert metric_fingerprint(problem.metric, problem.spec) == before
        fresh = read_current_problem()
        assert metric_fingerprint(fresh.metric, fresh.spec) == before


class TestFixedPointBasin:
    """The 33-point scan of ``_read_fixed_point`` misses a stored and
    metastable pair that falls inside one 43.75 mV cell and then returns
    the flipped state (``_BLIND_SPOT_X``).  Such lanes must never reach it:
    every lane ``solve_read_state`` routes to the fixed point lands in the
    least fixed point's basin as a fine scan sees it."""

    def test_blind_spot_exists(self):
        problem = read_current_problem()
        cell = problem.metric.cell
        deltas = problem.metric.mismatch.deltas(np.array([_BLIND_SPOT_X]))
        d_flat = {name: np.asarray(deltas.get(name, np.zeros(1)), dtype=np.float64)
                  for name in DEVICE_NAMES}
        top = _least_basin_top(cell, d_flat, 1, 4097)
        v_q_fp, _ = cell._read_fixed_point(d_flat, True, 1)
        assert 0.47 < top[0] < 0.49 < 1.1 < v_q_fp[0]
        v_q, _ = cell.solve_read_state(deltas)
        assert v_q[0] < top[0]

    def test_fixed_point_lanes_in_least_basin(self):
        """A grid across the read-upset fold, which runs near
        ``x1 - x2 = 5.85`` (4.14 sigma from nominal along (1, -1))."""
        problem = read_current_problem()
        cell = problem.metric.cell
        across, along = np.meshgrid(np.linspace(4.09, 4.17, 41),
                                    np.linspace(-2.0, 2.0, 25))
        x = np.stack([along + across, along - across], axis=-1).reshape(-1, 2)
        deltas = problem.metric.mismatch.deltas(x / np.sqrt(2.0))
        newton = _newton_lanes(cell, deltas, True)
        v_q, _ = cell.solve_read_state(deltas)
        routed = {name: np.asarray(deltas.get(name, np.zeros(len(x))))[~newton]
                  for name in DEVICE_NAMES}
        n = int(np.count_nonzero(~newton))
        assert n > 100
        top = _least_basin_top(cell, routed, n, 2049)
        assert np.all(v_q[~newton] <= top)
        # The grid straddles the fold: it holds cells that keep their state.
        i_read = _low_read_current(cell, (v_q, None), deltas, True)
        assert 100 < np.count_nonzero(i_read >= _READ_SPEC) < len(x) - 100


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

    def test_read_state_alone_equals_in_chunk(self, iread_metric):
        """Lanes solved alone (stacked throughout) equal the same lanes in
        a 4,096-row chunk (per-device, then stacked), bit for bit."""
        x = np.random.default_rng(8).standard_normal((4096, 2))
        x[-1] = [4.5, -3.5]  # a read-upset straggler: runs the fixed point
        deltas = iread_metric.mismatch.deltas(x)
        cell = iread_metric.cell
        chunk = cell.solve_read_state(deltas)
        for lane in range(63, 4096, 64):
            alone = cell.solve_read_state(
                {name: d[lane:lane + 1] for name, d in deltas.items()}
            )
            for got, want in zip(alone, chunk):
                np.testing.assert_array_equal(got, want[lane:lane + 1])

    def test_stopped_stragglers_alone_equal_in_batches(self, iread_metric,
                                                     monkeypatch):
        """With the read-current stop on, stragglers leave the bisection at
        different steps, so a batch's later rounds run deeper trees over
        fewer lanes.  Each straggler solved alone (depth 8 throughout)
        equals the same lane in batches of 8 and of all of them, bit for
        bit."""
        cell = iread_metric.cell
        x = np.array([2.0, -4.0]) + np.random.default_rng(9).standard_normal((400, 2))
        seen = []
        fixed_point = cell._read_fixed_point
        monkeypatch.setattr(cell, "_read_fixed_point",
                            lambda d, *args: seen.append(d) or fixed_point(d, *args))
        cell.solve_read_state(iread_metric.mismatch.deltas(x))
        monkeypatch.undo()
        (pool,) = seen
        n = len(pool["pd_l"])
        depths = []
        bisection_depth = cell_module._bisection_depth
        monkeypatch.setattr(cell_module, "_bisection_depth",
                            lambda lanes: depths.append(bisection_depth(lanes))
                            or depths[-1])

        def solve(lanes):
            depths.clear()
            out = cell._read_fixed_point(
                {name: d[lanes] for name, d in pool.items()}, True, len(lanes))
            return out, set(depths)

        whole, whole_depths = solve(np.arange(n))
        assert n > 100 and len(whole_depths) >= 2 and 8 not in whole_depths
        for start in range(0, n, 8):
            lanes = np.arange(start, min(start + 8, n))
            group, _ = solve(lanes)
            for got, want in zip(group, whole):
                np.testing.assert_array_equal(got, want[lanes])
        for lane in range(0, n, 7):
            alone, alone_depths = solve(np.arange(lane, lane + 1))
            assert alone_depths <= {8}
            for got, want in zip(alone, whole):
                np.testing.assert_array_equal(got, want[lane:lane + 1])

    @pytest.mark.parametrize("stored_zero_at_q", [True, False])
    def test_straggler_alone_equals_among_other_far_sides(self, stored_zero_at_q):
        """The scan solves the far side once per distinct far-side
        mismatch row.  Stragglers whose batch-mates share some of five far
        rows and carry others equal themselves solved alone, bit for bit:
        each lane reads its own group's far curve.  Three of the rows
        weaken the far side enough to move the scan's bracket, so a lane
        handed another group's curve would show."""
        cell = fragile_cell()
        n = 40
        delta = _read_upset_deltas(n, stored_zero_at_q, seed=10)
        high = "_r" if stored_zero_at_q else "_l"
        rows = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, -0.4], [0.6, 0.2, -0.5],
                         [0.3, -0.3, -0.3], [-0.3, 0.3, 0.3]])
        rows = rows[np.random.default_rng(10).integers(0, 5, n)]
        for k, role in enumerate(("pd", "pu", "ax")):
            delta[role + high] = rows[:, k]
        whole = cell._read_fixed_point(delta, stored_zero_at_q, n)
        for lane in range(n):
            alone = cell._read_fixed_point(
                {name: d[lane:lane + 1] for name, d in delta.items()},
                stored_zero_at_q, 1)
            for got, want in zip(alone, whole):
                np.testing.assert_array_equal(got, want[lane:lane + 1])

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
