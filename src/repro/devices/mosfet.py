"""Smooth EKV-style MOSFET compact model.

The statistical algorithms in this library treat the circuit as a black box,
but the *shape* of the failure regions they explore is set by the device
physics.  This model is a simplified EKV formulation chosen for three
properties that matter here:

* **One equation for all regions.**  The interpolation function
  ``F(u) = ln(1 + exp(u/2))^2`` smoothly covers subthreshold, triode and
  saturation, so margins and currents are C-infinity in the threshold-voltage
  mismatch inputs — no kinks to confuse Newton solves, binary searches or
  surrogate fits.
* **Physical tail behaviour.**  Subthreshold conduction decays
  exponentially, which is what makes extreme (5-6 sigma) Vth excursions —
  exactly where SRAM failures live — behave realistically.
* **Analytic derivatives**, used by the DC solver's Newton iterations.

Currents follow the source/drain-symmetric EKV form

    I_D = I_spec * (F(v_p - v_s) - F(v_p - v_d)) * (1 + lambda * (v_d - v_s))

with ``v_p = (v_g - v_th) / n`` the pinch-off voltage and
``I_spec = 2 n beta U_T^2``; all voltages are in units referenced to the
NMOS convention (PMOS is handled by sign reflection).  Channel-length
modulation enters through the smooth ``(1 + lambda (v_d - v_s))`` factor.

Performance note: ``F`` and ``F'`` are the innermost cost of every
simulation, so :func:`_interp_f_and_deriv` builds both from one vectorised
``exp`` and one ``log1p``: 2.5-3x cheaper than a two-argument log-sum-exp
at 4,096 to 24,576 lanes, 1.3x at 486, on a 2-vCPU AVX-512 VM with numpy
2.4 (the ``ekv_interp`` rows of ``benchmarks/bench_backend_kernels.py``).
Every evaluation path — per device, stacked with a leading device axis,
or with held terminals hoisted (:func:`ekv_drain_moving`,
:func:`ekv_source_moving`) — calls that one function, which is what keeps
the paths bit-identical to one another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

#: Thermal voltage kT/q at 300 K, in volts.
THERMAL_VOLTAGE = 0.02585

#: Polarity constants.
NMOS = 1
PMOS = -1


def _interp_f_and_deriv(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return F(u) = ln(1+exp(u/2))^2 and dF/du = ln(1+exp(u/2)) * sigmoid(u/2).

    Both come from one always-decaying exponential ``decay = exp(-|u/2|)``,
    so neither tail overflows and the code is branch-free (this sits in the
    innermost solver loop): the softplus is ``max(u/2, 0) + log1p(decay)``
    and the sigmoid reuses ``decay``.  Both outputs are within 4 ulp of an
    exact reference over ``u`` in [-1500, 1500]
    (``tests/test_devices_mosfet.py``).
    """
    half = 0.5 * np.asarray(u, dtype=np.float64)
    decay = np.exp(-np.abs(half))
    soft = np.maximum(half, 0.0) + np.log1p(decay)
    sig = np.where(half >= 0.0, 1.0, decay) / (1.0 + decay)
    return soft * soft, soft * sig


def ekv_pinch_off(vg, vb, polarity, vth, n, delta_vth=0.0):
    """Pinch-off voltage ``v_p = (v_g' - v_th) / n`` in the NMOS frame.

    Voltages are referenced to the bulk and PMOS is reflected into the
    NMOS frame: ``v' = polarity * (v - vb)``, ``I' = polarity * I``.
    """
    f64 = np.float64
    vg_n = polarity * (np.asarray(vg, dtype=f64) - vb)
    return (vg_n - (vth + np.asarray(delta_vth, dtype=f64))) / n


def ekv_terminal(v, vb, polarity, vp):
    """One channel terminal: its NMOS-frame voltage ``v'`` and ``F``, ``F'``
    at ``(v_p - v') / U_T``."""
    v_n = polarity * (np.asarray(v, dtype=np.float64) - vb)
    f, df = _interp_f_and_deriv((vp - v_n) / THERMAL_VOLTAGE)
    return v_n, f, df


def ekv_specific_current(beta, n):
    """``I_spec = 2 n beta U_T^2``."""
    ut = THERMAL_VOLTAGE
    return 2.0 * n * beta * ut * ut


def _channel(i_spec, lam, ff, fr, vd_n, vs_n):
    """``(core, clm, ids')``: the forward-minus-reverse core, the
    channel-length modulation factor and the NMOS-frame current."""
    core = ff - fr
    clm = 1.0 + lam * (vd_n - vs_n)
    return core, clm, i_spec * core * clm


def _d_ids_dvd(i_spec, lam, dfr, core, clm):
    d_core_dvd = -dfr * (-1.0 / THERMAL_VOLTAGE)  # fr' * (-1/ut), minus sign
    return i_spec * (d_core_dvd * clm + core * lam)


def _d_ids_dvs(i_spec, lam, dff, core, clm):
    d_core_dvs = -dff / THERMAL_VOLTAGE
    return i_spec * (d_core_dvs * clm - core * lam)


def ekv_current_and_derivs(vg, vd, vs, vb, polarity, vth, beta, n, lam,
                           delta_vth=0.0):
    """Vectorised EKV core: ``(ids, d_ids/d_vg, d_ids/d_vd, d_ids/d_vs)``.

    All arguments may be scalars or mutually broadcastable arrays — device
    parameters included, which is what lets the SRAM cell kernels
    (:mod:`repro.sram.cell`) evaluate *several devices at once* with a
    leading device axis.  The arithmetic is elementwise and
    performed in exactly the same operation order as the historical
    per-device code, so a stacked evaluation is bit-identical per lane to
    per-device calls.
    """
    vb = np.asarray(vb, dtype=np.float64)
    vp = ekv_pinch_off(vg, vb, polarity, vth, n, delta_vth)
    vd_n, fr, dfr = ekv_terminal(vd, vb, polarity, vp)
    vs_n, ff, dff = ekv_terminal(vs, vb, polarity, vp)
    i_spec = ekv_specific_current(beta, n)
    core, clm, ids_n = _channel(i_spec, lam, ff, fr, vd_n, vs_n)

    # Partials in the NMOS frame.
    d_core_dvg = (dff - dfr) * (1.0 / n) / THERMAL_VOLTAGE
    d_ids_dvg = i_spec * d_core_dvg * clm
    d_ids_dvd = _d_ids_dvd(i_spec, lam, dfr, core, clm)
    d_ids_dvs = _d_ids_dvs(i_spec, lam, dff, core, clm)

    # Map back: I = sgn * I_n(v' = sgn*v) -> dI/dv = sgn * dI_n/dv' * sgn = dI_n/dv'.
    return polarity * ids_n, d_ids_dvg, d_ids_dvd, d_ids_dvs


def ekv_drain_moving(i_spec, lam, polarity, source, drain):
    """``(ids, d_ids/d_vd)`` of a device whose gate, bulk and source are held.

    ``source`` is the held source's ``(v', F)`` and ``drain`` the moving
    drain's ``(v', F, F')`` from :func:`ekv_terminal`, so a solve that
    moves only the drain computes the pinch-off voltage and the source
    interpolation once.  Every value is the one
    :func:`ekv_current_and_derivs` returns, bit for bit: the same
    operations in the same order, minus the unused partials.
    """
    vs_n, ff = source
    vd_n, fr, dfr = drain
    core, clm, ids_n = _channel(i_spec, lam, ff, fr, vd_n, vs_n)
    return polarity * ids_n, _d_ids_dvd(i_spec, lam, dfr, core, clm)


def ekv_source_moving(i_spec, lam, polarity, drain, source):
    """``(ids, d_ids/d_vs)`` of a device whose gate, bulk and drain are held;
    the mirror of :func:`ekv_drain_moving` (``drain`` is ``(v', F)``,
    ``source`` is ``(v', F, F')``)."""
    vd_n, fr = drain
    vs_n, ff, dff = source
    core, clm, ids_n = _channel(i_spec, lam, ff, fr, vd_n, vs_n)
    return polarity * ids_n, _d_ids_dvs(i_spec, lam, dff, core, clm)


@dataclass(frozen=True)
class MosfetParams:
    """Electrical parameters of one MOSFET.

    Attributes
    ----------
    polarity:
        ``NMOS`` (+1) or ``PMOS`` (-1).
    vth:
        Threshold-voltage magnitude in volts (positive for both polarities).
    beta:
        Transconductance factor ``kp * W / L`` in A/V^2.
    n:
        Subthreshold slope factor (typically 1.2-1.6).
    lam:
        Channel-length modulation coefficient in 1/V.
    """

    polarity: int
    vth: float
    beta: float
    n: float = 1.4
    lam: float = 0.15

    def __post_init__(self):
        if self.polarity not in (NMOS, PMOS):
            raise ValueError(f"polarity must be NMOS (+1) or PMOS (-1), got {self.polarity}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.n <= 0:
            raise ValueError(f"subthreshold slope factor must be positive, got {self.n}")

    def with_vth_shift(self, delta_vth) -> "MosfetParams":
        """Return parameters with the threshold magnitude shifted by ``delta_vth``.

        For scalar shifts only; batched shifts are passed per-call to
        :meth:`Mosfet.current`.
        """
        return replace(self, vth=self.vth + float(delta_vth))


class Mosfet:
    """A MOSFET instance evaluating drain current and small-signal derivatives.

    All voltage arguments are node potentials referenced to ground and may be
    NumPy arrays of any (mutually broadcastable) shape, which is how the
    batched Monte-Carlo evaluation works: one call evaluates the device for
    every process-variation sample at once.
    """

    def __init__(self, params: MosfetParams):
        self.params = params

    def current(self, vg, vd, vs, vb=0.0, delta_vth=0.0) -> np.ndarray:
        """Drain current (A) flowing from drain to source (NMOS convention).

        For PMOS the same convention holds: a conducting PMOS with source at
        VDD and drain lower returns a *negative* value (current flows out of
        the drain node into the circuit when stamped with the right sign).

        ``vb`` is the bulk potential (0 for an NMOS in a grounded p-well,
        VDD for a PMOS in an n-well).  The EKV pinch-off voltage is
        bulk-referenced, so getting this right is what keeps a PMOS with
        VGS = 0 actually off.

        ``delta_vth`` is the local threshold mismatch (V), broadcast against
        the voltage arrays — this is where the paper's random variables
        ``Delta V_TH`` enter the substrate.
        """
        ids, _, _, _ = self.current_and_derivs(vg, vd, vs, vb, delta_vth)
        return ids

    def current_and_derivs(self, vg, vd, vs, vb=0.0, delta_vth=0.0):
        """Return ``(ids, d_ids/d_vg, d_ids/d_vd, d_ids/d_vs)``.

        Derivatives are exact (analytic), as required by the Newton DC
        solver.  The bulk derivative is not returned separately because the
        bulk is always tied to a clamped rail in this library; it equals
        ``-(d_vg + d_vd + d_vs)`` by translation invariance if ever needed.
        """
        p = self.params
        return ekv_current_and_derivs(
            vg, vd, vs, vb, float(p.polarity), p.vth, p.beta, p.n, p.lam,
            delta_vth=delta_vth,
        )

    def __repr__(self) -> str:
        kind = "NMOS" if self.params.polarity == NMOS else "PMOS"
        return f"Mosfet({kind}, vth={self.params.vth:.3f} V, beta={self.params.beta:.2e})"
