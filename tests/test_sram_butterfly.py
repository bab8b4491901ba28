"""Tests for butterfly-curve margin extraction (repro.sram.butterfly).

The key validation uses *synthetic piecewise-linear curves* whose largest
inscribed square is known geometrically, independent of any circuit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sram.butterfly import (
    _interp_increasing_batched,
    line_family_sides,
    lobe_margins,
    slope_transforms,
    write_margin,
)


def ideal_inverter_curve(grid, v_high, v_low, trip, gain=20.0):
    """A steep, strictly decreasing tanh-style VTC."""
    return v_low + (v_high - v_low) * 0.5 * (1 - np.tanh(gain * (grid - trip)))


def _interp_increasing_reference(z, grid, c):
    """The two-lobe extraction's inverse interpolation, verbatim: it counts
    the samples below each level with a (levels x grid x rows) comparison."""
    p = z.shape[0]
    batch_ndim = z.ndim - 1
    c_col = np.reshape(c, (-1, 1) + (1,) * batch_ndim)
    count_dtype = np.min_scalar_type(p)
    levels = c_col[:, 0, ...]
    if z.size < 32 * p:
        below = np.less(np.moveaxis(z, 0, -1)[None, ...], levels[..., None], order="C")
        k = np.sum(below, axis=-1, dtype=count_dtype)
    else:
        k = np.sum(z[None, ...] < levels[:, None, ...], axis=1, dtype=count_dtype)
    k = np.clip(k, 1, p - 1)
    z0 = np.take_along_axis(z[None, ...], (k - 1)[:, None, ...], axis=1)[:, 0, ...]
    z1 = np.take_along_axis(z[None, ...], k[:, None, ...], axis=1)[:, 0, ...]
    g0 = grid[k - 1]
    g1 = grid[k]
    dz = z1 - z0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(dz > 0, (c_col[:, 0, ...] - z0) / np.where(dz > 0, dz, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    return g0 + frac * (g1 - g0)


def _lobe_margins_reference(grid, vtc_left, vtc_right, n_lines=121):
    """Both lobes over all ``n_lines`` levels, as the extraction was before
    it kept only the stored-0 lobe: ``(margin_pos, margin_neg)``.  This is
    the oracle :func:`lobe_margins` must match bit for bit on
    ``margin_pos``."""
    grid = np.asarray(grid, dtype=np.float64)
    span = float(grid[-1] - grid[0])
    c_levels = np.linspace(-span, span, n_lines)
    grid_col = np.reshape(grid, (-1,) + (1,) * (vtc_right.ndim - 1))
    z_left, z_right = grid_col - vtc_left, vtc_right - grid_col
    x_right = _interp_increasing_reference(-z_right, grid, -c_levels)
    y_left = _interp_increasing_reference(z_left, grid, c_levels)
    batch_ndim = vtc_left.ndim - 1
    c_col = np.reshape(c_levels, (-1,) + (1,) * batch_ndim)
    t = x_right - (y_left - c_col)
    valid = (
        (c_col > np.min(z_right, axis=0))
        & (c_col < np.max(z_right, axis=0))
        & (c_col > np.min(z_left, axis=0))
        & (c_col < np.max(z_left, axis=0))
    )
    pos = np.reshape(c_levels > 1e-12, (-1,) + (1,) * batch_ndim)
    neg = np.reshape(c_levels < -1e-12, (-1,) + (1,) * batch_ndim)
    margin_pos = np.max(np.where(valid & pos, t, -np.inf), axis=0)
    margin_neg = np.max(np.where(valid & neg, -t, -np.inf), axis=0)
    margin_pos = np.where(np.isfinite(margin_pos), margin_pos, -span)
    margin_neg = np.where(np.isfinite(margin_neg), margin_neg, -span)
    return margin_pos, margin_neg


@st.composite
def butterflies(draw):
    """``(grid, vtc_left, vtc_right, n_lines)`` with the corner cases of the
    level count: curves quantised to the level spacing (points exactly on
    a level), flat stretches and whole flat curves, lobes shifted until
    they collapse, and non-monotone noise."""
    n_grid = draw(st.sampled_from([5, 9, 17, 33, 81]))
    n_lines = draw(st.sampled_from([5, 9, 121, 129]))
    rows = draw(st.integers(1, 5))
    grid = np.linspace(0.0, 1.0, n_grid)
    # With span 1 and n_lines = 2**k + 1 the levels are dyadic, so curves
    # on a 1/64 lattice put transform samples exactly on levels.
    quantum = draw(st.sampled_from([0.0, 1.0 / 64, 1.0 / 8]))

    def curve():
        kind = draw(st.sampled_from(["decreasing", "flat", "noise"]))
        if kind == "flat":
            values = np.full((n_grid, rows), draw(st.floats(-0.25, 1.25)))
        elif kind == "noise":
            values = np.array(
                draw(st.lists(st.floats(-0.5, 1.5), min_size=n_grid * rows,
                              max_size=n_grid * rows))
            ).reshape(n_grid, rows)
        else:
            steps = np.array(
                draw(st.lists(st.floats(0.0, 0.5), min_size=n_grid * rows,
                              max_size=n_grid * rows))
            ).reshape(n_grid, rows)
            values = draw(st.floats(0.5, 1.5)) - np.cumsum(steps, axis=0)
        values = values + draw(st.floats(-0.75, 0.75))  # may collapse a lobe
        if quantum:
            values = np.round(values / quantum) * quantum
        return values

    return grid, curve(), curve(), n_lines


class TestLineFamilySides:
    def test_symmetric_butterfly_t_antisymmetric(self):
        grid = np.linspace(0, 1.2, 201)
        curve = ideal_inverter_curve(grid, 1.2, 0.0, 0.6)
        c = np.linspace(-0.9, 0.9, 19)
        t = line_family_sides(grid, curve, curve, c)
        # Same curve for both halves: t(c) = -t(-c) by mirror symmetry.
        np.testing.assert_allclose(t, -t[::-1], atol=1e-6)

    def test_t_zero_at_intersections(self):
        grid = np.linspace(0, 1.2, 401)
        curve = ideal_inverter_curve(grid, 1.2, 0.0, 0.6)
        t = line_family_sides(grid, curve, curve, np.array([0.0]))
        assert abs(t[0]) < 1e-6

    def test_batched_curves(self):
        grid = np.linspace(0, 1.2, 101)
        base = ideal_inverter_curve(grid, 1.2, 0.0, 0.6)
        curves = np.stack([base, base * 0.9 + 0.05], axis=1)
        c = np.linspace(-0.5, 0.5, 7)
        t = line_family_sides(grid, curves, curves, c)
        assert t.shape == (7, 2)

    def test_precomputed_transforms_identical(self):
        """Passing slope_transforms output must reproduce the internal path
        bit-for-bit — the contract lobe_margins relies on to share the
        transforms between side extraction and its validity mask."""
        grid = np.linspace(0, 1.2, 101)
        base = ideal_inverter_curve(grid, 1.2, 0.0, 0.55)
        curves = np.stack([base, base * 0.85 + 0.1], axis=1)
        c = np.linspace(-0.8, 0.8, 13)
        transforms = slope_transforms(grid, curves, curves)
        z_left, z_right = transforms
        np.testing.assert_array_equal(
            z_right, curves - grid[:, np.newaxis]
        )
        np.testing.assert_array_equal(
            z_left, grid[:, np.newaxis] - curves
        )
        t_internal = line_family_sides(grid, curves, curves, c)
        t_shared = line_family_sides(grid, curves, curves, c, transforms)
        np.testing.assert_array_equal(t_internal, t_shared)


class TestLobeMargins:
    def test_square_size_of_ideal_butterfly(self):
        """For two ideal (step-like) inverters with rails [0, 1.2], right
        trip at 0.4 and left trip at 0.8, the lobes are rectangles
        [0, 0.4] x [0.8, 1.2] and [0.4, 1.2] x [0, 0.8], whose largest
        inscribed squares have sides 0.4 and 0.8 — classical geometry with
        a known exact answer.  The c < 0 lobe is the mirrored butterfly's
        stored-0 lobe."""
        grid = np.linspace(0, 1.2, 801)
        right = ideal_inverter_curve(grid, 1.2, 0.0, 0.4, gain=400.0)
        left = ideal_inverter_curve(grid, 1.2, 0.0, 0.8, gain=400.0)
        pos = lobe_margins(grid, left, right)
        neg = lobe_margins(grid, right, left)
        assert pos == pytest.approx(0.4, abs=0.02)
        assert neg == pytest.approx(0.8, abs=0.02)

    def test_symmetric_cell_equal_lobes(self):
        """A symmetric cell's stored-0 lobe equals its stored-1 lobe, read
        from the two-lobe extraction."""
        grid = np.linspace(0, 1.2, 201)
        curve = ideal_inverter_curve(grid, 1.2, 0.1, 0.6)
        pos = lobe_margins(grid, curve, curve)
        _, neg = _lobe_margins_reference(grid, curve, curve)
        assert pos == pytest.approx(neg, abs=1e-6)
        assert pos > 0.2

    def test_mirrored_butterfly_is_the_stored_1_lobe(self):
        """Swapping the curves mirrors the plot about y = x, which maps the
        c < 0 lobe onto the c > 0 one: the same squares, within rounding."""
        grid = np.linspace(0, 1.2, 81)
        left = np.stack(
            [ideal_inverter_curve(grid, 1.2, 0.0, trip) for trip in
             (0.3, 0.5, 0.7, 0.9)], axis=1)
        right = np.stack(
            [ideal_inverter_curve(grid, 1.1, 0.1, trip, gain=8.0) for trip in
             (0.6, 0.45, 0.8, 0.2)], axis=1)
        _, neg = _lobe_margins_reference(grid, left, right)
        np.testing.assert_allclose(
            lobe_margins(grid, right, left), neg, rtol=0, atol=1e-12
        )

    def test_collapsed_lobe_negative_margin(self):
        """When one curve sits entirely above the other (monostable), the
        lost lobe's margin must go negative, not clamp at zero."""
        grid = np.linspace(0, 1.2, 201)
        right = ideal_inverter_curve(grid, 1.2, 0.0, 0.3)
        # Left curve shifted so its output never goes low enough to cross:
        left = ideal_inverter_curve(grid, 1.2, 0.9, 0.9)
        pos = lobe_margins(grid, left, right)
        neg = lobe_margins(grid, right, left)
        assert (pos < 0) or (neg < 0)

    def test_even_n_lines_rejected(self):
        grid = np.linspace(0, 1.2, 51)
        curve = ideal_inverter_curve(grid, 1.2, 0.0, 0.6)
        with pytest.raises(ValueError, match="odd"):
            lobe_margins(grid, curve, curve, n_lines=20)

    def test_margin_monotone_in_lobe_size(self):
        """Growing the upper-left lobe (right trip higher, left trip lower)
        must grow the c > 0 margin."""
        grid = np.linspace(0, 1.2, 401)
        margins = []
        for sep in (0.05, 0.15, 0.25):
            right = ideal_inverter_curve(grid, 1.2, 0.0, 0.6 + sep, gain=50.0)
            left = ideal_inverter_curve(grid, 1.2, 0.0, 0.6 - sep, gain=50.0)
            margins.append(lobe_margins(grid, left, right))
        assert margins[0] < margins[1] < margins[2]

    def test_batch_shape(self):
        grid = np.linspace(0, 1.2, 101)
        base = ideal_inverter_curve(grid, 1.2, 0.0, 0.6)
        curves = np.repeat(base[:, np.newaxis], 4, axis=1)
        assert lobe_margins(grid, curves, curves).shape == (4,)
        assert lobe_margins(grid, base, base).shape == ()


class TestLobeMarginsMatchTwoLobeExtraction:
    """The one-lobe extraction with its sorted-level count reproduces the
    two-lobe comparison count's ``margin_pos`` bit for bit."""

    @staticmethod
    def _assert_bitwise(grid, left, right, n_lines):
        got = lobe_margins(grid, left, right, n_lines)
        want, _ = _lobe_margins_reference(grid, left, right, n_lines)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(butterflies())
    @settings(max_examples=200, deadline=None)
    def test_drawn_butterflies(self, case):
        grid, left, right, n_lines = case
        self._assert_bitwise(grid, left, right, n_lines)
        self._assert_bitwise(grid, left[:, 0], right[:, 0], n_lines)

    def test_rnm_chunk(self):
        """Cell VTCs past the trailing-sum batch size of the comparison
        count, collapsed lobes included."""
        from repro.sram.metrics import ReadNoiseMarginMetric

        rnm = ReadNoiseMarginMetric()
        vdd = rnm.cell.vdd
        deltas = rnm.mismatch.deltas(
            8.0 * np.random.default_rng(3).standard_normal((96, 6))
        )
        left, right = rnm.cell.half_cell_vtc(
            ("left", "right"), rnm.grid, (vdd, vdd), deltas
        )
        want, _ = _lobe_margins_reference(rnm.grid, left, right)
        assert (want < 0).any() and (want > 0).any()
        self._assert_bitwise(rnm.grid, left, right, 121)


class TestPerRowLevelInterpolation:
    """The write margin's per-row-level interpolation shares the crossing
    arithmetic: each row equals the frozen interpolation on that row's
    levels, bit for bit, on both sides of the comparison count's batch
    switch."""

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_frozen_interpolation(self, rows, seed):
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.0, 1.2, 41)
        z = np.cumsum(rng.uniform(0.0, 0.1, (41, rows)), axis=0) - 1.0
        z = np.round(z * 64) / 64  # flat runs and ties
        levels = np.concatenate(
            [rng.uniform(-1.5, 3.0, (9, rows)), z[rng.integers(0, 41, 4)]]
        )
        got = _interp_increasing_batched(z, grid, levels)
        for j in range(rows):
            want = _interp_increasing_reference(z[:, j], grid, levels[:, j])
            assert got[:, j].tobytes() == want.tobytes()


class TestWriteMargin:
    def grid(self):
        return np.linspace(0, 1.2, 201)

    def test_writable_cell_positive(self):
        grid = self.grid()
        read_curve = ideal_inverter_curve(grid, 1.2, 0.2, 0.6)
        # Write-driven curve: collapses to a sliver near x = 0.
        write_curve = 0.08 * np.exp(-3 * grid)
        wm = write_margin(grid, write_curve, read_curve)
        assert wm > 0.1

    def test_unwritable_cell_negative(self):
        grid = self.grid()
        read_curve = ideal_inverter_curve(grid, 1.2, 0.2, 0.3, gain=30.0)
        # Write curve extends far right at low y: retention lobe survives.
        write_curve = np.maximum(1.0 - 2.0 * grid, 0.0)
        wm = write_margin(grid, write_curve, read_curve)
        assert wm < 0

    def test_margin_decreases_with_stronger_retention(self):
        grid = self.grid()
        read_curve = ideal_inverter_curve(grid, 1.2, 0.2, 0.6)
        margins = []
        for reach in (0.05, 0.3, 0.6):
            write_curve = np.maximum(reach * (1.0 - grid / 0.8), 0.0)
            margins.append(write_margin(grid, write_curve, read_curve))
        assert margins[0] > margins[1] > margins[2]

    def test_cap_leaves_points(self):
        grid = self.grid()
        with pytest.raises(ValueError, match="no write-curve points"):
            write_margin(grid, grid * 0, grid * 0, y_cap_fraction=-1.0)

    def test_batched(self):
        grid = self.grid()
        read_curve = ideal_inverter_curve(grid, 1.2, 0.2, 0.6)
        write_curves = np.stack(
            [0.05 * np.exp(-3 * grid), 0.5 * np.exp(-1 * grid)], axis=1
        )
        reads = np.repeat(read_curve[:, np.newaxis], 2, axis=1)
        wm = write_margin(grid, write_curves, reads)
        assert wm.shape == (2,)
        assert wm[0] > wm[1]  # shorter write sliver = bigger eye
