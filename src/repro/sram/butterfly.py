"""Largest-square (Seevinck) noise-margin extraction from butterfly curves.

The static noise margin of a latch is the side of the largest square that
fits inside a lobe of the butterfly plot formed by the two half-cell voltage
transfer curves.  This module extracts it with the *slope-1 line family*
construction, which is numerically robust and fully vectorised across
Monte-Carlo batches:

For each line ``y = x + c``, a strictly decreasing VTC is crossed exactly
once, so both curves yield unique crossing points ``(x_L, y_L)`` and
``(x_R, y_R)`` with ``x_R - x_L = y_R - y_L = t(c)``.  The axis-aligned
square with those two points as opposite corners has side ``|t(c)|``, and
the lobe's largest inscribed square is ``max_c`` of the correctly signed
``t``.  Crucially the construction stays defined when the lobe has
*collapsed*: the sign of ``t`` flips, yielding a negative margin that
measures how far the cell is into failure — which is what lets binary
searches and surrogate models see a continuous function through the failure
boundary (a library design decision documented in DESIGN.md).

Plane convention: ``x = v_q`` (left storage node), ``y = v_qb`` (right).
The right inverter (input ``v_q``, output ``v_qb``) plots as
``y = vtc_right(x)``; the left inverter (input ``v_qb``, output ``v_q``)
plots as ``x = vtc_left(y)``.  The lobe at ``c = y - x > 0`` corresponds to
the state storing 0 at ``q``; the ``c < 0`` lobe to storing 1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _interp_increasing(z, grid, c):
    """Inverse-interpolate a batched monotone function.

    ``z`` has shape ``(P, *batch)`` and is strictly increasing along axis 0;
    ``grid`` is the ``(P,)`` abscissa.  Returns, for every query level in the
    1-D array ``c``, the interpolated abscissa where ``z`` crosses that
    level, with endpoint clamping — shape ``(C, *batch)``.
    """
    p = z.shape[0]
    batch_ndim = z.ndim - 1
    c_col = np.reshape(c, (-1, 1) + (1,) * batch_ndim)
    # Count of z-samples strictly below each level: the upper bracket index.
    k = np.sum(z[None, ...] < c_col, axis=1)
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


def _interp_increasing_batched(z, grid, c):
    """Like :func:`_interp_increasing` but with per-batch query levels.

    ``z`` is ``(P, *batch)`` strictly increasing along axis 0; ``c`` is
    ``(Q, *batch)``.  Returns ``(Q, *batch)``.
    """
    p = z.shape[0]
    cmp = z[None, ...] < c[:, None, ...]
    k = np.clip(np.sum(cmp, axis=1), 1, p - 1)
    z0 = np.take_along_axis(z[None, ...], (k - 1)[:, None, ...], axis=1)[:, 0, ...]
    z1 = np.take_along_axis(z[None, ...], k[:, None, ...], axis=1)[:, 0, ...]
    g0 = grid[k - 1]
    g1 = grid[k]
    dz = z1 - z0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(dz > 0, (c - z0) / np.where(dz > 0, dz, 1.0), 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    return g0 + frac * (g1 - g0)


def slope_transforms(grid, vtc_left, vtc_right) -> Tuple[np.ndarray, np.ndarray]:
    """Slope-1 transforms ``(z_left, z_right)`` of the two butterfly curves.

    ``z_right = vtc_right - grid`` is the intercept ``y - x`` along curve R
    (decreasing along the grid axis); ``z_left = grid - vtc_left`` is the
    intercept along curve L (increasing).  Both side extraction
    (:func:`line_family_sides`) and the validity mask of
    :func:`lobe_margins` are functions of these two arrays alone, so
    callers compute them once per batch and share them.
    """
    grid_col = np.reshape(
        np.asarray(grid, dtype=np.float64), (-1,) + (1,) * (vtc_right.ndim - 1)
    )
    return grid_col - vtc_left, vtc_right - grid_col


def line_family_sides(
    grid,
    vtc_left,
    vtc_right,
    c_levels,
    transforms: Optional[Tuple[np.ndarray, np.ndarray]] = None,
):
    """Signed inscribed-square side ``t(c)`` for every slope-1 line level.

    Parameters
    ----------
    grid:
        ``(P,)`` input-voltage grid shared by both curves.
    vtc_left:
        ``(P, *batch)`` left half-cell response ``v_q = h_L(v_qb)`` sampled
        at ``grid`` (strictly decreasing along axis 0).
    vtc_right:
        ``(P, *batch)`` right half-cell response ``v_qb = h_R(v_q)``.
    c_levels:
        ``(C,)`` intercepts of the lines ``y = x + c``.
    transforms:
        Optional precomputed :func:`slope_transforms` output for these
        curves, letting callers that also need the transforms (e.g.
        :func:`lobe_margins`'s validity mask) compute them once.

    Returns
    -------
    ``(C, *batch)`` array of ``t(c) = x_R(c) - x_L(c)``.
    """
    grid = np.asarray(grid, dtype=np.float64)
    c_levels = np.asarray(c_levels, dtype=np.float64)
    if transforms is None:
        transforms = slope_transforms(grid, vtc_left, vtc_right)
    z_left, z_right = transforms
    # Curve R: points (grid, vtc_right); z = y - x decreasing along the grid.
    x_right = _interp_increasing(-z_right, grid, -c_levels)
    # Curve L: points (vtc_left, grid); z = y - x increasing along the grid.
    y_left = _interp_increasing(z_left, grid, c_levels)
    x_left = y_left - np.reshape(c_levels, (-1,) + (1,) * (y_left.ndim - 1))
    return x_right - x_left


def lobe_margins(grid, vtc_left, vtc_right, n_lines: int = 121):
    """Signed largest-square sides of both butterfly lobes.

    Returns ``(margin_pos, margin_neg)``, each of the batch shape:

    * ``margin_pos`` — lobe at ``c > 0`` (state storing 0 at ``q``);
    * ``margin_neg`` — lobe at ``c < 0`` (state storing 1 at ``q``).

    A margin is positive when its lobe exists (its value is the usual SNM of
    that state) and negative when mismatch has destroyed the state.
    """
    grid = np.asarray(grid, dtype=np.float64)
    span = float(grid[-1] - grid[0])
    if n_lines < 5 or n_lines % 2 == 0:
        raise ValueError(
            "n_lines must be an odd integer >= 5 so that c=0 is excluded symmetrically"
        )
    c_levels = np.linspace(-span, span, n_lines)
    transforms = slope_transforms(grid, vtc_left, vtc_right)
    t = line_family_sides(grid, vtc_left, vtc_right, c_levels, transforms)

    # A line level is only meaningful where it genuinely crosses BOTH curves;
    # outside, the interpolation clamps to curve endpoints and would inject
    # spurious t = 0 entries that mask negative (failed-lobe) margins.
    batch_ndim = vtc_left.ndim - 1
    z_left, z_right = transforms
    c_col = np.reshape(c_levels, (-1,) + (1,) * batch_ndim)
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
    # A lobe with no valid level at all is maximally collapsed: report the
    # worst representable margin instead of -inf so downstream arithmetic
    # (surrogate fits, binary searches) stays finite.
    margin_pos = np.where(np.isfinite(margin_pos), margin_pos, -span)
    margin_neg = np.where(np.isfinite(margin_neg), margin_neg, -span)
    return margin_pos, margin_neg


def write_margin(grid, vtc_left_write, vtc_right, y_cap_fraction: float = 0.5):
    """Signed write margin from the write-configuration butterfly.

    During a write (left bitline at 0 V) the write-driven half-cell curve
    ``x = h_Lw(y)`` collapses into a sliver near ``x = 0``; the cell is
    writable iff that sliver stays strictly left of the read-configuration
    curve ``y = h_R(x)`` in the retention region (low ``y``), so no residual
    stable state survives.

    The margin is measured as the *smallest slope-1 (45-degree) distance*
    from any write-curve point with ``y <= y_cap_fraction * max(grid)`` to
    the read curve: for a point ``(x_p, y_p)`` on the write curve, the line
    ``y = x + (y_p - x_p)`` crosses the strictly decreasing read curve
    exactly once, at ``x_R``; the signed clearance is ``x_R - x_p``.  The
    minimum over the retention region is positive for a writable cell
    (the size of the write eye) and goes continuously negative as a
    retention lobe forms — a write failure.

    Restricting to the lower half of the plot excludes the written-state
    intersection (top-left corner), where the clearance is legitimately
    zero.
    """
    grid = np.asarray(grid, dtype=np.float64)
    y_cap = y_cap_fraction * float(grid[-1])
    keep = grid <= y_cap
    if not bool(np.any(keep)):
        raise ValueError("y_cap_fraction leaves no write-curve points to evaluate")
    y_p = grid[keep]
    batch_ndim = vtc_left_write.ndim - 1
    x_p = vtc_left_write[keep]
    c_p = np.reshape(y_p, (-1,) + (1,) * batch_ndim) - x_p

    # Crossing of each line with the read curve: z = h_R(x) - x is strictly
    # decreasing along the grid, so negate both sides for the increasing
    # interpolator.
    grid_col = np.reshape(grid, (-1,) + (1,) * batch_ndim)
    z_inc = grid_col - vtc_right
    x_r = _interp_increasing_batched(z_inc, grid, -c_p)
    clearance = x_r - x_p
    return np.min(clearance, axis=0)
