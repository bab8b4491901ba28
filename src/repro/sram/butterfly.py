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

Performance note: the read and hold margins call :func:`lobe_margins` once
per simulator call, at one or two rows inside a Gibbs conditional and at
4,096 rows in a Monte-Carlo chunk.  It evaluates only the stored-0 lobe
(the 60 positive levels of the default 121), the one lobe the metrics
read, and :func:`_interp_increasing` finds each level's bracketing curve
samples with one sorted search plus a per-row cumulative histogram
(:func:`_count_below_levels`), not a (levels x grid x rows) comparison.
Both are bit-identical to the two-lobe comparison count they replaced
(``tests/test_sram_butterfly.py`` keeps it as the oracle); on a 2-vCPU VM
(numpy 2.4) a two-row call took 0.15 ms against 0.31 ms and a 4,096-row
chunk 43 ms against 110 ms (``benchmarks/bench_backend_kernels.py``,
``rnm_margin``).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


#: Batch size from which :func:`_count_below` (per-row levels: the write
#: margin) sums over the grid axis in place rather than along a trailing
#: copy of it.  Counting 121 levels on an 81-point grid (2-vCPU VM, numpy
#: 2.4), the trailing sum took 37 us at 2 rows against 207 us in place, was
#: even at 32 rows, and took 1.1 ms against 0.35 ms at 64.
_TRAILING_COUNT_MAX_BATCH = 32


def _count_below(z, c):
    """Count of ``z`` samples strictly below each level of ``c``.

    ``z`` is ``(P, *batch)`` and ``c`` is ``(Q, *batch)`` or broadcastable
    to it; returns ``(Q, *batch)`` in the narrowest unsigned type that
    holds ``P`` (the counts are exact, so any such type gives the same
    margins).  numpy pays per inner-loop call: summing a small batch over
    the grid axis in place makes one short call per level and grid point,
    so small batches sum along a trailing, contiguous grid axis instead.
    """
    p = z.shape[0]
    count_dtype = np.min_scalar_type(p)
    if z.size < _TRAILING_COUNT_MAX_BATCH * p:
        below = np.less(np.moveaxis(z, 0, -1)[None, ...], c[..., None], order="C")
        return np.sum(below, axis=-1, dtype=count_dtype)
    return np.sum(z[None, ...] < c[:, None, ...], axis=1, dtype=count_dtype)


def _count_below_levels(z, levels):
    """:func:`_count_below` for one level set shared by the whole batch.

    ``z`` is ``(P, rows)`` and ``levels`` a ``(Q,)`` array in any order;
    returns ``(Q, rows)``.  Each sample's bin — the number of levels at or
    below it — comes from one ``np.searchsorted`` over the sorted levels:
    the sample lies strictly below exactly the sorted levels from its bin
    on.  A per-row cumulative histogram of the bins is then every level's
    count, in ``O(P)`` work per row instead of the ``O(P Q)`` comparisons
    of :func:`_count_below`, and equal to it: both compare the same floats.
    """
    rows = z.shape[1]
    q = levels.shape[0]
    order = np.argsort(levels, kind="stable")
    bins = np.searchsorted(levels, z, side="right", sorter=order)
    bins += np.arange(0, rows * (q + 1), q + 1)
    hist = np.bincount(bins.ravel(), minlength=rows * (q + 1))
    counts = np.empty((q, rows), dtype=hist.dtype)
    counts[order] = np.cumsum(np.reshape(hist, (rows, q + 1))[:, :q], axis=1).T
    return counts


def _crossings(z, grid, c, k):
    """Abscissae where the ``(P, rows)`` samples ``z`` cross levels ``c``.

    ``c`` is ``(Q, 1)`` or ``(Q, rows)`` and ``k`` holds, per level and
    row, the count of samples strictly below it: the crossing's upper
    bracket index.  Each crossing interpolates linearly inside its
    bracket, clamped to the curve's ends; returns ``(Q, rows)``.
    """
    p, rows = z.shape
    k = np.minimum(np.maximum(k, 1), p - 1).astype(np.intp, copy=False)
    # Bracket ends gathered from the flat, row-major samples.
    upper = k * rows + np.arange(rows)
    z_flat = z.reshape(p * rows)
    z0 = z_flat[upper - rows]
    dz = z_flat[upper] - z0
    g0 = grid[k - 1]
    # The crossing's fraction of its bracket, divided only where the
    # bracket rises (elsewhere 0).
    num = c - z0
    frac = np.divide(num, dz, out=np.zeros_like(num), where=dz > 0)
    np.clip(frac, 0.0, 1.0, out=frac)
    return g0 + frac * (grid[k] - g0)


def _interp_increasing(z, grid, c):
    """Inverse-interpolate a batched monotone function.

    ``z`` has shape ``(P, *batch)`` and is strictly increasing along axis 0;
    ``grid`` is the ``(P,)`` abscissa.  Returns, for every query level in the
    1-D array ``c``, the interpolated abscissa where ``z`` crosses that
    level, with endpoint clamping — shape ``(C, *batch)``.
    """
    p, batch = z.shape[0], z.shape[1:]
    z = z.reshape(p, math.prod(batch))
    k = _count_below_levels(z, c)
    return _crossings(z, grid, c.reshape(-1, 1), k).reshape((-1,) + batch)


def _interp_increasing_batched(z, grid, c):
    """Like :func:`_interp_increasing` but with per-batch query levels.

    ``z`` is ``(P, *batch)`` strictly increasing along axis 0; ``c`` is
    ``(Q, *batch)``.  Returns ``(Q, *batch)``.
    """
    p, batch = z.shape[0], z.shape[1:]
    rows = math.prod(batch)
    z, c = z.reshape(p, rows), c.reshape(-1, rows)
    return _crossings(z, grid, c, _count_below(z, c)).reshape((-1,) + batch)


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
    """Signed largest-square side of the stored-0 lobe, of the batch shape.

    The lobe sits at ``c > 0`` (the state storing 0 at ``q``), so only the
    positive half of the ``n_lines`` line levels spanning ``[-span, span]``
    is evaluated.  The margin is positive when the lobe exists (its value
    is the usual SNM of that state) and negative when mismatch has
    destroyed the state.  The ``c < 0`` lobe (storing 1) is the stored-0
    lobe of the mirrored butterfly, ``lobe_margins(grid, vtc_right,
    vtc_left)``.
    """
    grid = np.asarray(grid, dtype=np.float64)
    span = float(grid[-1] - grid[0])
    if n_lines < 5 or n_lines % 2 == 0:
        raise ValueError(
            "n_lines must be an odd integer >= 5 so that c=0 is excluded symmetrically"
        )
    c_levels = np.linspace(-span, span, n_lines)
    c_levels = c_levels[c_levels > 1e-12]
    transforms = slope_transforms(grid, vtc_left, vtc_right)
    t = line_family_sides(grid, vtc_left, vtc_right, c_levels, transforms)

    # A line level is only meaningful where it genuinely crosses BOTH curves;
    # outside, the interpolation clamps to curve endpoints and would inject
    # spurious t = 0 entries that mask negative (failed-lobe) margins.
    # The crossed levels lie strictly inside both transforms' ranges.
    z_left, z_right = transforms
    c_col = c_levels.reshape((-1,) + (1,) * (vtc_left.ndim - 1))
    valid = (c_col > np.maximum(z_right.min(axis=0), z_left.min(axis=0))) & (
        c_col < np.minimum(z_right.max(axis=0), z_left.max(axis=0))
    )
    margin = np.where(valid, t, -np.inf).max(axis=0)
    # A lobe with no valid level at all is maximally collapsed: report the
    # worst representable margin instead of -inf so downstream arithmetic
    # (surrogate fits, binary searches) stays finite.
    return np.where(np.isfinite(margin), margin, -span)


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
