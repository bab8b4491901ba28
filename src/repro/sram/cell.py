"""The 6-T SRAM cell and its batched DC analyses.

Device naming follows the paper's Fig. 5 conventions as reverse-engineered
from three statements in Section V:

* the read current is "the drain current of transistor M3" with WL and both
  bitlines at VDD — M3 is the *left access* transistor;
* read-current variation is dominated by M1 and M3 — M1 is the *left
  pull-down* in series with that access path;
* the WNM-critical pair is (M3, M5) — M5 is the *left pull-up* the write
  must overpower through M3.

Hence the device order M1..M6 used everywhere in this library::

    M1 = pd_l   left pull-down (NMOS)    M2 = pd_r   right pull-down (NMOS)
    M3 = ax_l   left access    (NMOS)    M4 = ax_r   right access    (NMOS)
    M5 = pu_l   left pull-up   (PMOS)    M6 = pu_r   right pull-up   (PMOS)

with storage nodes ``q`` (left, drain of M1/M5, inner terminal of M3) and
``qb`` (right).

Performance note: the butterfly-curve and read-state analyses are the hot
path of every Monte-Carlo experiment, so they bypass the general netlist
solver and evaluate the half-cell KCL directly with a *vectorised
safeguarded Newton* — the single-node KCL residual is strictly increasing in
the node voltage (every device's output conductance is positive), so a
bracketed Newton/bisection hybrid is globally convergent.

A Gibbs conditional simulates one or two rows at a time, so those solves
run on arrays of a few hundred lanes, where numpy's per-call dispatch — not
arithmetic — sets the cost.  Two measures keep the dispatch count down:
``half_cell_vtc`` solves both butterfly sides in one coarse-grid plus one
full-grid Newton loop (not two of each), and while the active lane set is
small the half-cell residual evaluates the pull-down, pull-up and access
devices in one stacked EKV call (one dispatch per ufunc for all three).
Lanes never interact, so both are bit-identical per lane to the per-side,
per-device solve; ``benchmarks/bench_backend_kernels.py`` times them against
that solve, kept as the oracle in ``tests/test_sram_cell.py``.

The batched analyses are array-API generic: the namespace is inferred from
the ``delta_vth`` arrays (:func:`repro.backend.array_namespace`), so numpy
callers execute the exact historical instruction stream (bit-identical)
while torch/cupy mismatch batches run on their own backend end to end.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.backend import array_namespace, astype, errstate, gather_1d
from repro.circuit.netlist import Circuit
from repro.telemetry import context as _telemetry
from repro.devices.mosfet import Mosfet, ekv_current_and_derivs
from repro.devices.technology import (
    DEFAULT_GEOMETRIES,
    DeviceGeometry,
    Technology,
    default_technology,
)

#: Device names in paper order (index i corresponds to transistor M(i+1)).
DEVICE_NAMES: Tuple[str, ...] = ("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")

#: Map from paper transistor label to index in DEVICE_NAMES.
PAPER_INDEX: Dict[str, int] = {f"M{i + 1}": i for i in range(6)}


def _shape_of(value) -> Tuple[int, ...]:
    """Shape of a scalar or any backend's array without converting it."""
    return tuple(value.shape) if hasattr(value, "shape") else np.shape(value)


def _solve_monotone_node(residual, lo: float, hi: float, shape,
                         iterations: int = 26, tol: float = 2e-12,
                         v0=None, xp=np):
    """Solve ``residual(v) = 0`` for a strictly increasing residual.

    ``residual`` maps a *flat* array of node voltages plus an optional
    flat-index array (``None`` meaning "all lanes") to ``(f, dfdv)`` for
    those lanes.  Uses Newton steps safeguarded by bisection on the bracket
    ``[lo, hi]``; globally convergent for monotone residuals.

    The loop maintains a shrinking **active set**: a lane whose residual
    drops under ``tol`` is written back and exits immediately, so every
    subsequent residual evaluation — the dominant cost, three transistor
    models per lane — covers only the still-running lanes.  In a
    Monte-Carlo batch the bulk converges within a few Newton steps and a
    handful of collapsed-lobe stragglers run long, so the tail iterations
    cost a fraction of the full batch (the same pattern as the DC solver's
    Newton loop).  Lane freezing also keeps batch members decoupled: a
    converged lane's value never depends on how long *other* lanes keep
    the loop alive (a batch-coupling bug caught by importance-sampling
    weight explosions; see tests/test_sram_cell.py).

    ``v0`` (broadcastable to ``shape``) seeds the first Newton step instead
    of the bracket midpoint — the grid-continuation warm start of
    :meth:`SixTransistorCell.half_cell_vtc`.  The bracket stays the full
    ``[lo, hi]``, so a poor warm start costs iterations, never correctness.
    """
    n = int(np.prod(shape)) if shape else 1
    lo_act = xp.full((n,), float(lo), dtype=xp.float64)
    hi_act = xp.full((n,), float(hi), dtype=xp.float64)
    if v0 is None:
        v_act = 0.5 * (lo_act + hi_act)
    else:
        v_act = xp.clip(
            xp.reshape(xp.broadcast_to(xp.asarray(v0, dtype=xp.float64), shape), (n,)),
            float(lo), float(hi),
        )
    v = xp.empty((n,), dtype=xp.float64)
    active = xp.arange(n)
    recorder = _telemetry.get_active()
    lane_iters = 0
    for _ in range(iterations):
        if recorder is not None:
            lane_iters += int(active.shape[0])
        f, dfdv = residual(v_act, active)
        done = xp.abs(f) < tol
        if bool(xp.any(done)):
            # Early lane exit: freeze converged lanes at the voltage their
            # residual was just evaluated at and drop them from the set.
            v[active[done]] = v_act[done]
            keep = ~done
            if not bool(xp.any(keep)):
                active = active[:0]
                break
            active = active[keep]
            v_act, lo_act, hi_act = v_act[keep], lo_act[keep], hi_act[keep]
            f, dfdv = f[keep], dfdv[keep]
        # Tighten the bracket using the sign of the monotone residual.
        above = f > 0.0
        hi_act = xp.where(above, v_act, hi_act)
        lo_act = xp.where(~above, v_act, lo_act)
        with errstate(xp, divide="ignore", invalid="ignore"):
            step = xp.where(dfdv > 0.0, -f / dfdv, 0.0)
        candidate = v_act + step
        # Fall back to bisection wherever Newton leaves the bracket or the
        # derivative is unusable.
        inside = (candidate > lo_act) & (candidate < hi_act) & (dfdv > 0.0)
        v_act = xp.where(inside, candidate, 0.5 * (lo_act + hi_act))
    if int(active.shape[0]):
        v[active] = v_act
    if recorder is not None:
        recorder.count("newton.lane_solves", n)
        recorder.count("newton.lane_iters", lane_iters)
    return xp.reshape(v, shape)


#: Input-grid stride of the coarse continuation pass in ``half_cell_vtc``.
_VTC_COARSE_STRIDE = 8

#: Newton lanes per row block of ``half_cell_vtc``: 256 rows of a two-side
#: solve on the metrics' 81-point grid.  Blocks bound peak memory; on a
#: 2-vCPU AVX-512 VM (numpy 2.4), 4,096-row RNM chunks also ran ~20% faster
#: in 256-row blocks than in 2,048-row ones.
_VTC_BLOCK_LANES = 2 * 81 * 256

#: Active-lane count under which the half-cell residual evaluates its three
#: devices in one stacked EKV call instead of three per-device calls.  On
#: the same VM the stacked call was 1.3-1.8x faster up to 512 lanes, even
#: from 1,024 to 2,560, and ~2x slower from 3,000 lanes on, where its
#: three-device temporaries no longer stay in cache.
_STACKED_MAX_LANES = 1024


def _interp_along_axis0(x_full, x_coarse, y_coarse, xp=np):
    """Linearly interpolate ``y_coarse`` onto ``x_full`` along axis 0.

    ``y_coarse`` has shape ``(len(x_coarse), *batch)``; the result has shape
    ``(len(x_full), *batch)``.  Only used to seed Newton iterations, so
    plain piecewise-linear accuracy is plenty.
    """
    pos = xp.searchsorted(x_coarse, x_full, side="right") - 1
    pos = xp.clip(pos, 0, int(x_coarse.shape[0]) - 2)
    x0 = gather_1d(xp, x_coarse, pos)
    span = gather_1d(xp, x_coarse, pos + 1) - x0
    frac = xp.where(span > 0.0, (x_full - x0) / xp.where(span > 0.0, span, 1.0), 0.0)
    frac = xp.reshape(frac, (-1,) + (1,) * (y_coarse.ndim - 1))
    y0 = xp.take(y_coarse, pos, axis=0)
    return y0 + frac * (xp.take(y_coarse, pos + 1, axis=0) - y0)


class SixTransistorCell:
    """A 6-T SRAM cell with per-device mismatch hooks.

    Parameters
    ----------
    technology:
        Process description; defaults to the library's 90nm-flavoured corner.
    geometries:
        Mapping with keys ``pull_down`` / ``access`` / ``pull_up`` overriding
        the default transistor sizes.
    """

    def __init__(
        self,
        technology: Optional[Technology] = None,
        geometries: Optional[Mapping[str, DeviceGeometry]] = None,
    ):
        self.technology = technology or default_technology()
        geo = dict(DEFAULT_GEOMETRIES)
        if geometries:
            unknown = set(geometries) - set(geo)
            if unknown:
                raise KeyError(f"unknown geometry roles: {sorted(unknown)}")
            geo.update(geometries)
        self.geometries = geo
        tech = self.technology
        role_of = {
            "pd_l": "pull_down", "pd_r": "pull_down",
            "ax_l": "access", "ax_r": "access",
            "pu_l": "pull_up", "pu_r": "pull_up",
        }
        self.devices: Dict[str, Mosfet] = {}
        self.sigma_vth: Dict[str, float] = {}
        for name in DEVICE_NAMES:
            role = role_of[name]
            geometry = geo[role]
            params = tech.pmos(geometry) if name.startswith("pu") else tech.nmos(geometry)
            self.devices[name] = Mosfet(params)
            self.sigma_vth[name] = tech.sigma_vth(geometry)
        self.vdd = tech.vdd

    # ----------------------------------------------------------- netlist
    def build_circuit(self) -> Circuit:
        """Full-cell netlist for use with the general DC solver.

        Nodes: ``q``, ``qb`` (storage), ``bl``, ``blb``, ``wl``, ``vdd``.
        Used by examples and cross-validation tests; the Monte-Carlo hot
        paths use the specialised solvers below instead.
        """
        c = Circuit("sram6t")
        dev = {name: self.devices[name].params for name in DEVICE_NAMES}
        c.add_mosfet("pd_l", dev["pd_l"], drain="q", gate="qb", source="0")
        c.add_mosfet("pu_l", dev["pu_l"], drain="q", gate="qb", source="vdd", bulk="vdd")
        c.add_mosfet("ax_l", dev["ax_l"], drain="bl", gate="wl", source="q")
        c.add_mosfet("pd_r", dev["pd_r"], drain="qb", gate="q", source="0")
        c.add_mosfet("pu_r", dev["pu_r"], drain="qb", gate="q", source="vdd", bulk="vdd")
        c.add_mosfet("ax_r", dev["ax_r"], drain="blb", gate="wl", source="qb")
        return c

    # ------------------------------------------------- half-cell response
    def _matched_sides(self, sides) -> bool:
        """Whether every side in ``sides`` has the same device parameters."""
        return len(set(sides)) == 1 or all(
            self.devices[role + "_l"].params == self.devices[role + "_r"].params
            for role in ("pd", "pu", "ax")
        )

    def _half_cell_residual(self, sides, vin, bl_voltage, wl_voltage,
                            delta_vth: Mapping[str, np.ndarray], shape, xp=np):
        """Residual factory: KCL current leaving the storage node of each side.

        ``sides`` is a side name with its bitline voltage ``bl_voltage``, or
        a tuple of side names with one bitline voltage each.  The lanes are
        side-major: each side contributes ``prod(shape)`` lanes, its input
        voltage and that side's per-device mismatches broadcast to ``shape``
        and flattened once, so the returned ``residual(v, idx)`` can
        evaluate any *subset* of lanes — the contract
        :func:`_solve_monotone_node`'s active-set loop relies on.  Subset
        evaluation is elementwise, hence bit-identical to evaluating the
        full batch and slicing.  The sides must share device parameters
        (:meth:`_matched_sides`).

        Below ``_STACKED_MAX_LANES`` active lanes the pull-down, pull-up and
        access devices run as one EKV call with a leading device axis and
        ``(3, 1)`` parameter columns — a third of the ufunc dispatches of
        three per-device calls, which is what a one- or two-row Gibbs
        simulation pays for.  Both forms perform the same elementwise
        operations in the same order, so every lane is bit-identical
        whichever form evaluates it, and the switch may happen mid-solve.
        """
        if isinstance(sides, str):
            sides, bl_voltage = (sides,), (bl_voltage,)
        suffixes = ["_l" if side == "left" else "_r" for side in sides]
        pd, pu, ax = (self.devices[role + suffixes[0]] for role in ("pd", "pu", "ax"))
        vdd = self.vdd
        # Per-lane terminal voltages and mismatches of the three devices,
        # rows ordered so every argument of the stacked call is a row slice
        # — sources 0:3, drains 2:5, mismatches 5:8, gates 8:11, with rows
        # 2-3 the node voltage, written per call — and the per-device calls
        # need rows 4:9 only.
        lanes = xp.empty((11, len(sides)) + tuple(shape), dtype=xp.float64)
        lanes[0] = 0.0
        lanes[1] = vdd
        lanes[8:10] = xp.asarray(vin, dtype=xp.float64)
        lanes[10] = wl_voltage
        for k, (suffix, bl) in enumerate(zip(suffixes, bl_voltage)):
            lanes[4, k] = bl
            for row, role in ((5, "pd"), (6, "pu"), (7, "ax")):
                lanes[row, k] = xp.asarray(
                    delta_vth.get(role + suffix, 0.0), dtype=xp.float64
                )
        lanes = xp.reshape(lanes, (11, -1))
        columns = [
            xp.asarray([[float(getattr(dev.params, name))] for dev in (pd, pu, ax)],
                       dtype=xp.float64)
            for name in ("polarity", "vth", "beta", "n", "lam")
        ]
        vb = xp.asarray([[0.0], [vdd], [0.0]], dtype=xp.float64)

        def residual(v_node, idx=None):
            if int(v_node.shape[0]) < _STACKED_MAX_LANES:
                at = lanes if idx is None else xp.take(lanes, idx, axis=1)
                at[2:4] = v_node
                i, _, dd, ds = ekv_current_and_derivs(
                    at[8:11], at[2:5], at[0:3], vb, *columns,
                    delta_vth=at[5:8], xp=xp,
                )
                return i[0] + i[1] - i[2], dd[0] + dd[1] - ds[2]
            bl_x, dpd_x, dpu_x, dax_x, vin_x = (
                lanes[4:9] if idx is None else xp.take(lanes[4:9], idx, axis=1)
            )
            i_pd, _, dd_pd, _ = pd.current_and_derivs(vin_x, v_node, 0.0, 0.0, dpd_x)
            i_pu, _, dd_pu, _ = pu.current_and_derivs(vin_x, v_node, vdd, vdd, dpu_x)
            i_ax, _, _, ds_ax = ax.current_and_derivs(
                wl_voltage, bl_x, v_node, 0.0, dax_x
            )
            # i_pd and i_pu leave the node (their drain is the node); the
            # access current flows bitline -> node, so it enters the node.
            f = i_pd + i_pu - i_ax
            dfdv = dd_pd + dd_pu - ds_ax
            return f, dfdv

        return residual

    def half_cell_vtc(
        self,
        side,
        vin_grid: np.ndarray,
        bl_voltage,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        wl_voltage: Optional[float] = None,
        v0=None,
    ):
        """Voltage transfer curves of half-cells with their access devices.

        Solves the storage-node voltage for every input-grid point and every
        mismatch sample at once.  ``side`` is ``"left"``, ``"right"``, or a
        tuple of side names solved together; each VTC has shape
        ``(n_grid, *batch)`` where ``batch`` is the broadcast shape of the
        ``delta_vth`` arrays (``(n_grid,)`` if no mismatch given).  A single
        side name returns one array, a tuple returns a tuple of arrays.

        ``bl_voltage`` selects the configuration — VDD for read (both
        bitlines precharged) and 0 V for the write-driven side — and is one
        voltage per side when ``side`` is a tuple.

        Every side's lanes run in one coarse-grid Newton loop plus one
        full-grid loop, in row blocks of at most ``_VTC_BLOCK_LANES`` lanes
        (a bound on peak memory).  Lanes never interact, so each side's
        curve is bit-identical to solving that side alone.

        ``v0`` optionally seeds the Newton solve with a previously converged
        VTC of matching shape (one seed, or one per side, ``None`` for a
        cold side) — the cross-round warm start of :mod:`repro.circuit.warm`
        — replacing the internal coarse grid-continuation pass.  As with
        that pass, the full ``[lo, hi]`` bracket and tolerance are retained
        — a stale seed costs Newton iterations, never correctness — so warm
        results agree with cold ones to solver tolerance but are not bitwise
        identical.  A seed whose shape does not match the solve is ignored.
        """
        single = isinstance(side, str)
        sides = (side,) if single else tuple(side)
        for name in sides:
            if name not in ("left", "right"):
                raise ValueError(f"side must be 'left' or 'right', got {name!r}")
        n_sides = len(sides)
        bls = (bl_voltage,) if single else tuple(bl_voltage)
        seeds = (v0,) if single else (tuple(v0) if v0 is not None else (None,) * n_sides)
        if len(bls) != n_sides or len(seeds) != n_sides:
            raise ValueError("bl_voltage and v0 need one entry per side")
        if not self._matched_sides(sides):
            return tuple(
                self.half_cell_vtc(s, vin_grid, b, delta_vth, wl_voltage, v)
                for s, b, v in zip(sides, bls, seeds)
            )
        delta_vth = dict(delta_vth or {})
        xp = array_namespace(vin_grid, *delta_vth.values())
        wl_voltage = self.vdd if wl_voltage is None else float(wl_voltage)
        bls = tuple(float(b) for b in bls)
        vin_grid = xp.asarray(vin_grid, dtype=xp.float64)
        if vin_grid.ndim != 1:
            raise ValueError("vin_grid must be 1-D")

        batch_shape = np.broadcast_shapes(*(_shape_of(d) for d in delta_vth.values())) \
            if delta_vth else ()
        n_grid = int(vin_grid.shape[0])
        n_rows = int(np.prod(batch_shape)) if batch_shape else 1
        shape = (n_grid,) + batch_shape
        # Rows are flattened so they can be blocked; per-lane results do
        # not depend on the block they run in.
        deltas = {
            name: xp.reshape(
                xp.broadcast_to(xp.asarray(d, dtype=xp.float64), batch_shape), (n_rows,)
            )
            for name, d in delta_vth.items()
        }
        seeds = [
            None if s is None or tuple(_shape_of(s)) != shape
            else xp.reshape(xp.asarray(s, dtype=xp.float64), (n_grid, n_rows))
            for s in seeds
        ]
        lo, hi = -0.2, self.vdd + 0.2
        # Grid continuation for the sides without a seed: solve every
        # ``stride``-th input point first, then seed the full solve by
        # linear interpolation along the grid axis.  The VTC is continuous
        # in the input voltage, so the interpolant lands within a few Newton
        # steps of the answer; the full solve keeps the complete [lo, hi]
        # bracket, so convergence (and the bisection safety net) is
        # untouched — only the Newton starting point changes, within the
        # solver tolerance.  Grids too short to thin start at the midpoint.
        continuation = n_grid >= 2 * _VTC_COARSE_STRIDE
        if continuation:
            coarse_idx = xp.arange(0, n_grid, _VTC_COARSE_STRIDE)
            if int(coarse_idx[-1]) != n_grid - 1:
                coarse_idx = xp.concat(
                    [coarse_idx, xp.asarray([n_grid - 1], dtype=coarse_idx.dtype)]
                )
            vin_coarse = xp.take(vin_grid, coarse_idx, axis=0)
        out = xp.empty((n_sides, n_grid, n_rows), dtype=xp.float64)
        block = max(1, _VTC_BLOCK_LANES // (n_sides * n_grid))
        for r0 in range(0, n_rows, block):
            r1 = min(r0 + block, n_rows)
            d_block = {name: d[r0:r1] for name, d in deltas.items()}
            init = [None if s is None else s[:, r0:r1] for s in seeds]
            cold = [k for k, s in enumerate(init) if s is None]
            if cold and continuation:
                coarse_shape = (int(vin_coarse.shape[0]), r1 - r0)
                coarse_res = self._half_cell_residual(
                    tuple(sides[k] for k in cold), vin_coarse[:, None],
                    tuple(bls[k] for k in cold), wl_voltage, d_block,
                    coarse_shape, xp,
                )
                v_coarse = _solve_monotone_node(
                    coarse_res, lo, hi, (len(cold),) + coarse_shape, xp=xp
                )
                for j, k in enumerate(cold):
                    init[k] = _interp_along_axis0(vin_grid, vin_coarse, v_coarse[j], xp)
            if any(s is not None for s in init):
                # A side still without a seed starts where the solver's own
                # cold start would: the bracket midpoint.
                midpoint = xp.full((n_grid, r1 - r0), 0.5 * (lo + hi), dtype=xp.float64)
                v_init = xp.stack([midpoint if s is None else s for s in init])
            else:
                v_init = None
            residual = self._half_cell_residual(
                sides, vin_grid[:, None], bls, wl_voltage, d_block,
                (n_grid, r1 - r0), xp,
            )
            out[:, :, r0:r1] = _solve_monotone_node(
                residual, lo, hi, (n_sides, n_grid, r1 - r0), v0=v_init, xp=xp
            )
        vtcs = tuple(xp.reshape(out[k], shape) for k in range(n_sides))
        return vtcs[0] if single else vtcs

    # ------------------------------------------------------- read state
    def solve_read_state(
        self,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        stored_zero_at_q: bool = True,
        newton_iterations: int = 80,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """DC state ``(v_q, v_qb)`` during a read access (WL=BL=BLB=VDD).

        The solve starts from the stored state, so if that state still exists
        it is returned; if large mismatch has destroyed it (static read
        upset) the solver lands on the flipped state — exactly the physics
        that makes the read-current failure region of Section V-B
        non-convex.

        Strategy: batched damped 2-D Newton for the bulk of the batch, then
        the monotone least-fixed-point construction
        (:meth:`_read_fixed_point`) for any members Newton left unconverged
        — typically samples at or past the read-upset fold, where Newton
        oscillates and relaxation slows critically, but where the bracketed
        fixed-point bisection stays O(log) regardless.
        """
        delta_vth = dict(delta_vth or {})
        xp = array_namespace(*delta_vth.values())
        batch_shape = np.broadcast_shapes(*(_shape_of(d) for d in delta_vth.values())) \
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
            name: xp.reshape(
                xp.broadcast_to(xp.asarray(val, dtype=xp.float64), batch_shape),
                (n_batch,),
            )
            for name, val in d.items()
        }
        vq = xp.full((n_batch,), float(init_q), dtype=xp.float64)
        vqb = xp.full((n_batch,), float(init_qb), dtype=xp.float64)

        # Residual tolerance: device currents are ~1e-4 A and node
        # conductances ~1e-4 S, so 3e-11 A resolves node voltages to well
        # under a microvolt — far tighter than any metric needs, yet loose
        # enough that near-fold (read-upset boundary) points, where Newton
        # slows to linear convergence, still terminate quickly.
        tol = 3e-11
        step_cap = 0.1

        def newton_pass(vq, vqb, deltas, iterations):
            converged = xp.zeros(vq.shape, dtype=xp.bool)
            for _ in range(iterations):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb, deltas)
                converged = (xp.abs(fq) < tol) & (xp.abs(fqb) < tol)
                if bool(xp.all(converged)):
                    break
                det = j11 * j22 - j12 * j21
                safe = xp.abs(det) > 1e-30
                inv_det = xp.where(safe, 1.0 / xp.where(safe, det, 1.0), 0.0)
                dvq = xp.clip(-(j22 * fq - j12 * fqb) * inv_det, -step_cap, step_cap)
                dvqb = xp.clip(-(-j21 * fq + j11 * fqb) * inv_det, -step_cap, step_cap)
                vq = xp.clip(vq + xp.where(converged, 0.0, dvq), -0.2, vdd + 0.2)
                vqb = xp.clip(vqb + xp.where(converged, 0.0, dvqb), -0.2, vdd + 0.2)
            return vq, vqb, converged

        # Phase 1: a short full-batch Newton settles the vast majority.
        first_pass = min(14, newton_iterations)
        vq, vqb, converged = newton_pass(vq, vqb, d_flat, first_pass)

        if not bool(xp.all(converged)):
            # Phase 2: compact the stragglers — mostly read-upset cases
            # where the stored state no longer exists and Newton oscillates
            # around the fold — and resolve them with the monotone
            # fixed-point construction, which has no critical slowing.
            idx = xp.nonzero(~converged)[0]
            d_sub = {name: val[idx] for name, val in d_flat.items()}
            vq_s, vqb_s = self._read_fixed_point(
                d_sub, stored_zero_at_q, int(idx.shape[0]), xp=xp
            )
            vq[idx] = vq_s
            vqb[idx] = vqb_s

        return xp.reshape(vq, batch_shape), xp.reshape(vqb, batch_shape)

    def _read_fixed_point(self, delta, stored_zero_at_q, n_batch,
                          n_grid: int = 33, bisect_iters: int = 30, xp=np):
        """Basin-correct read state via the monotone loop map.

        The read-configuration DC states are the fixed points of
        ``phi(v) = h_near(h_far(v))`` — the composition of the two
        half-cell responses — which is *increasing* (both responses are
        strictly decreasing).  By monotone-map theory, the state reachable
        from the stored value (low node near 0) is the **least** fixed
        point, i.e. the first sign change of ``psi(v) = phi(v) - v`` going
        up from the bottom of the range.  A vectorised grid scan brackets
        that crossing and bisection refines it: cost is independent of how
        close the cell sits to the read-upset fold, where Newton and
        relaxation methods slow critically.

        ``stored_zero_at_q`` selects which storage node is the low one;
        ``v`` always parametrises the *low* node.
        """
        vdd = self.vdd
        if stored_zero_at_q:
            near, far = "left", "right"
        else:
            near, far = "right", "left"

        def loop_map(v_low):
            """phi: low-node voltage -> far response -> near response."""
            shape = _shape_of(v_low)
            far_res = self._half_cell_residual(far, v_low, vdd, vdd, delta, shape, xp)
            v_far = _solve_monotone_node(far_res, -0.2, vdd + 0.2, shape, xp=xp)
            near_res = self._half_cell_residual(near, v_far, vdd, vdd, delta, shape, xp)
            v_near = _solve_monotone_node(near_res, -0.2, vdd + 0.2, shape, xp=xp)
            return v_near, v_far

        grid = xp.linspace(-0.1, vdd + 0.1, n_grid)
        grid_b = xp.broadcast_to(grid[:, None], (n_grid, n_batch))
        phi, _ = loop_map(grid_b)
        psi = phi - grid_b
        # First + -> - transition: psi starts positive (phi maps the range
        # into itself) and ends negative.
        negative = psi < 0.0
        first_neg = xp.argmax(astype(xp, negative, xp.int64), axis=0)
        first_neg = xp.clip(first_neg, 1, n_grid - 1)
        lo = gather_1d(xp, grid, first_neg - 1)
        hi = gather_1d(xp, grid, first_neg)
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            phi_mid, _ = loop_map(mid)
            above = phi_mid >= mid
            lo = xp.where(above, mid, lo)
            hi = xp.where(above, hi, mid)
        v_low = 0.5 * (lo + hi)
        _, v_far = loop_map(v_low)
        # Evaluate the near node once more so (v_low, v_far) is an exact
        # consistent pair at the fixed point.
        near_res = self._half_cell_residual(
            near, v_far, vdd, vdd, delta, _shape_of(v_low), xp
        )
        v_low = _solve_monotone_node(near_res, -0.2, vdd + 0.2, _shape_of(v_low), xp=xp)
        if stored_zero_at_q:
            return v_low, v_far
        return v_far, v_low

    # ------------------------------------------------------ write timing
    def write_flip_time(
        self,
        delta_vth: Optional[Mapping[str, np.ndarray]] = None,
        node_capacitance: float = 5e-15,
        t_window: float = 150e-12,
        dt: float = 1e-12,
    ) -> np.ndarray:
        """Time (s) for a write-0 to pull ``q`` through VDD/2.

        The cell starts storing 1 at ``q``; at t = 0 the wordline is
        asserted with BL = 0 and BLB = VDD.  Backward-Euler integration of
        the two storage nodes (lumped ``node_capacitance`` each), with
        per-sample crossing detection; a cell that never flips inside
        ``t_window`` reports the full window, keeping the metric finite and
        monotone through the write-failure boundary.

        This is the specialised fast path behind
        :class:`repro.sram.dynamic.WriteTimeMetric`; it integrates only
        until every sample has either flipped or settled, which matters for
        the sequential single-sample evaluations of a Gibbs chain.
        """
        if node_capacitance <= 0 or dt <= 0 or t_window <= 0:
            raise ValueError("capacitance, dt and window must be positive")
        delta_vth = dict(delta_vth or {})
        xp = array_namespace(*delta_vth.values())
        batch_shape = np.broadcast_shapes(*(_shape_of(v) for v in delta_vth.values())) \
            if delta_vth else ()
        n_batch = int(np.prod(batch_shape)) if batch_shape else 1
        d = {
            name: xp.reshape(
                xp.broadcast_to(
                    xp.asarray(delta_vth.get(name, 0.0), dtype=xp.float64), batch_shape
                ),
                (n_batch,),
            )
            for name in DEVICE_NAMES
        }
        vdd = self.vdd
        dev = self.devices

        def residuals(vq, vqb):
            # Left half in write configuration: access pulls q toward BL=0.
            i_pd, g_pd, dd_pd, _ = dev["pd_l"].current_and_derivs(
                vqb, vq, 0.0, 0.0, d["pd_l"])
            i_pu, g_pu, dd_pu, _ = dev["pu_l"].current_and_derivs(
                vqb, vq, vdd, vdd, d["pu_l"])
            i_ax, _, dd_ax, _ = dev["ax_l"].current_and_derivs(
                vdd, vq, 0.0, 0.0, d["ax_l"])
            fq = i_pd + i_pu + i_ax
            j11 = dd_pd + dd_pu + dd_ax
            j12 = g_pd + g_pu
            # Right half sees BLB = VDD (read-like).
            i_pd2, g_pd2, dd_pd2, _ = dev["pd_r"].current_and_derivs(
                vq, vqb, 0.0, 0.0, d["pd_r"])
            i_pu2, g_pu2, dd_pu2, _ = dev["pu_r"].current_and_derivs(
                vq, vqb, vdd, vdd, d["pu_r"])
            i_ax2, _, _, ds_ax2 = dev["ax_r"].current_and_derivs(
                vdd, vdd, vqb, 0.0, d["ax_r"])
            fqb = i_pd2 + i_pu2 - i_ax2
            j22 = dd_pd2 + dd_pu2 - ds_ax2
            j21 = g_pd2 + g_pu2
            return fq, fqb, j11, j12, j21, j22

        g_cap = node_capacitance / dt
        n_steps = int(np.ceil(t_window / dt))
        half = 0.5 * vdd
        vq = xp.full((n_batch,), float(vdd), dtype=xp.float64)
        vqb = xp.zeros((n_batch,), dtype=xp.float64)
        crossing = xp.full((n_batch,), float(t_window), dtype=xp.float64)
        crossed = xp.zeros((n_batch,), dtype=xp.bool)
        for step in range(1, n_steps + 1):
            vq_prev, vqb_prev = vq, vqb
            # Backward-Euler step via a short damped Newton.
            for _ in range(12):
                fq, fqb, j11, j12, j21, j22 = residuals(vq, vqb)
                fq = fq + g_cap * (vq - vq_prev)
                fqb = fqb + g_cap * (vqb - vqb_prev)
                j11 = j11 + g_cap
                j22 = j22 + g_cap
                det = j11 * j22 - j12 * j21
                dvq = -(j22 * fq - j12 * fqb) / det
                dvqb = -(-j21 * fq + j11 * fqb) / det
                vq = xp.clip(vq + dvq, -0.2, vdd + 0.2)
                vqb = xp.clip(vqb + dvqb, -0.2, vdd + 0.2)
                if max(float(xp.max(xp.abs(dvq))), float(xp.max(xp.abs(dvqb)))) < 1e-10:
                    break
            # Linear-interpolated downward crossing of vdd/2 on the q node.
            just = (~crossed) & (vq_prev >= half) & (vq < half)
            if bool(xp.any(just)):
                frac = (vq_prev - half) / xp.maximum(vq_prev - vq, 1e-30)
                crossing = xp.where(
                    just, (step - 1 + xp.clip(frac, 0.0, 1.0)) * dt, crossing
                )
                crossed = crossed | just
            # Stop once every sample has flipped or truly frozen (tight
            # tolerance: a near-write-failure trajectory creeps through a
            # saddle before accelerating, and must not be cut off there).
            moved = xp.maximum(xp.abs(vq - vq_prev), xp.abs(vqb - vqb_prev))
            if bool(xp.all(crossed | (moved < 1e-8))):
                break
        return xp.reshape(crossing, batch_shape)

    # ------------------------------------------------------ read current
    def read_current(
        self, delta_vth: Optional[Mapping[str, np.ndarray]] = None
    ) -> np.ndarray:
        """Drain current of the left access transistor (M3) during read.

        This is the paper's Section V-B metric: WL and both bitlines at VDD,
        cell storing 0 at ``q``; the access device discharges the bitline
        through the left pull-down.  If mismatch statically flips the cell,
        the current collapses — the mechanism behind the non-convex failure
        region of Fig. 13.
        """
        delta_vth = dict(delta_vth or {})
        vq, _ = self.solve_read_state(delta_vth, stored_zero_at_q=True)
        ax = self.devices["ax_l"]
        return ax.current(self.vdd, self.vdd, vq, 0.0, delta_vth.get("ax_l", 0.0))

    def __repr__(self) -> str:
        g = self.geometries
        return (
            f"SixTransistorCell(vdd={self.vdd} V, "
            f"pd={g['pull_down'].ratio:.1f}, ax={g['access'].ratio:.1f}, "
            f"pu={g['pull_up'].ratio:.1f})"
        )
