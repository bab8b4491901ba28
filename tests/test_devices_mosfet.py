"""Tests for the EKV-style MOSFET model (repro.devices.mosfet)."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.mosfet import (
    NMOS,
    PMOS,
    THERMAL_VOLTAGE,
    Mosfet,
    MosfetParams,
    _interp_f_and_deriv,
)

NMOS_PARAMS = MosfetParams(polarity=NMOS, vth=0.35, beta=9e-4, n=1.35, lam=0.15)
PMOS_PARAMS = MosfetParams(polarity=PMOS, vth=0.35, beta=1.5e-4, n=1.45, lam=0.15)

voltage = st.floats(-0.3, 1.5)


class TestParams:
    def test_invalid_polarity_raises(self):
        with pytest.raises(ValueError, match="polarity"):
            MosfetParams(polarity=2, vth=0.3, beta=1e-4)

    def test_nonpositive_beta_raises(self):
        with pytest.raises(ValueError, match="beta"):
            MosfetParams(polarity=NMOS, vth=0.3, beta=0.0)

    def test_nonpositive_slope_raises(self):
        with pytest.raises(ValueError, match="slope"):
            MosfetParams(polarity=NMOS, vth=0.3, beta=1e-4, n=-1.0)

    def test_with_vth_shift(self):
        shifted = NMOS_PARAMS.with_vth_shift(0.05)
        assert shifted.vth == pytest.approx(0.40)
        assert NMOS_PARAMS.vth == pytest.approx(0.35)  # original untouched


class TestNmosRegions:
    device = Mosfet(NMOS_PARAMS)

    def test_off_state_leakage_small(self):
        ids = self.device.current(vg=0.0, vd=1.2, vs=0.0)
        assert 0 < ids < 1e-9

    def test_strong_inversion_current_large(self):
        ids = self.device.current(vg=1.2, vd=1.2, vs=0.0)
        assert ids > 1e-5

    def test_subthreshold_slope_is_exponential(self):
        """Current should grow ~exp(vg / (n Ut)) deep below threshold."""
        vg = np.array([0.00, 0.05, 0.10])
        ids = self.device.current(vg, 1.2, 0.0)
        ratios = ids[1:] / ids[:-1]
        expected = np.exp(0.05 / (NMOS_PARAMS.n * THERMAL_VOLTAGE))
        np.testing.assert_allclose(ratios, expected, rtol=0.05)

    def test_zero_vds_zero_current(self):
        ids = self.device.current(vg=1.0, vd=0.4, vs=0.4)
        assert ids == pytest.approx(0.0, abs=1e-15)

    def test_current_monotone_in_vd(self):
        vd = np.linspace(-0.1, 1.3, 50)
        ids = self.device.current(0.9, vd, 0.0)
        assert np.all(np.diff(ids) > 0)

    def test_current_monotone_in_vg(self):
        vg = np.linspace(0.0, 1.3, 50)
        ids = self.device.current(vg, 1.2, 0.0)
        assert np.all(np.diff(ids) > 0)

    def test_reverse_mode_negative_current(self):
        ids = self.device.current(vg=1.0, vd=0.0, vs=0.8)
        assert ids < 0

    def test_vth_shift_reduces_current(self):
        nominal = self.device.current(0.8, 1.2, 0.0)
        shifted = self.device.current(0.8, 1.2, 0.0, delta_vth=0.1)
        assert shifted < nominal

    def test_vth_shift_broadcasts(self):
        dv = np.array([-0.05, 0.0, 0.05])
        ids = self.device.current(0.8, 1.2, 0.0, delta_vth=dv)
        assert ids.shape == (3,)
        assert ids[0] > ids[1] > ids[2]


class TestPmos:
    device = Mosfet(PMOS_PARAMS)

    def test_off_when_vgs_zero(self):
        ids = self.device.current(vg=1.2, vd=0.6, vs=1.2, vb=1.2)
        assert abs(ids) < 1e-9

    def test_on_when_gate_low(self):
        ids = self.device.current(vg=0.0, vd=0.6, vs=1.2, vb=1.2)
        assert ids < -1e-6  # conventional current flows source -> drain

    def test_mirror_symmetry_with_nmos(self):
        """PMOS(v) must equal -NMOS(-v) for mirrored parameters."""
        n_params = MosfetParams(NMOS, vth=0.35, beta=1.5e-4, n=1.45, lam=0.15)
        nmos = Mosfet(n_params)
        vg, vd, vs, vb = 0.3, 0.6, 1.2, 1.2
        i_p = self.device.current(vg, vd, vs, vb)
        i_n = nmos.current(-(vg - vb), -(vd - vb), -(vs - vb), 0.0)
        assert i_p == pytest.approx(-i_n, rel=1e-12)


class TestDerivatives:
    @given(voltage, voltage, voltage, st.floats(-0.3, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_nmos_derivatives_match_finite_differences(self, vg, vd, vs, dvth):
        device = Mosfet(NMOS_PARAMS)
        _, d_vg, d_vd, d_vs = device.current_and_derivs(vg, vd, vs, 0.0, dvth)
        h = 1e-6
        for analytic, bump in (
            (d_vg, lambda e: device.current(vg + e, vd, vs, 0.0, dvth)),
            (d_vd, lambda e: device.current(vg, vd + e, vs, 0.0, dvth)),
            (d_vs, lambda e: device.current(vg, vd, vs + e, 0.0, dvth)),
        ):
            numeric = (bump(h) - bump(-h)) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-12)

    @given(voltage, voltage, voltage)
    @settings(max_examples=30, deadline=None)
    def test_pmos_derivatives_match_finite_differences(self, vg, vd, vs):
        device = Mosfet(PMOS_PARAMS)
        _, d_vg, d_vd, d_vs = device.current_and_derivs(vg, vd, vs, 1.2)
        h = 1e-6
        for analytic, bump in (
            (d_vg, lambda e: device.current(vg + e, vd, vs, 1.2)),
            (d_vd, lambda e: device.current(vg, vd + e, vs, 1.2)),
            (d_vs, lambda e: device.current(vg, vd, vs + e, 1.2)),
        ):
            numeric = (bump(h) - bump(-h)) / (2 * h)
            assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-12)

    def test_output_conductance_positive(self):
        """dI/dVd > 0 everywhere: what makes node residuals monotone."""
        device = Mosfet(NMOS_PARAMS)
        rng = np.random.default_rng(0)
        vg, vd, vs = rng.uniform(-0.3, 1.5, (3, 200))
        _, _, d_vd, _ = device.current_and_derivs(vg, vd, vs)
        assert np.all(d_vd > 0)

    def test_extreme_voltages_finite(self):
        device = Mosfet(NMOS_PARAMS)
        ids, d_vg, d_vd, d_vs = device.current_and_derivs(50.0, 50.0, -50.0)
        assert np.isfinite(ids) and np.isfinite(d_vg)
        ids2 = device.current(-50.0, 1.0, 0.0)
        assert np.isfinite(ids2) and ids2 >= 0


def _logaddexp_interp(u):
    """The interpolation's previous form, verbatim: the softplus from
    ``np.logaddexp``.  The oracle of the accuracy test below and of the
    ``ekv_interp`` rows in ``benchmarks/bench_backend_kernels.py``."""
    half = 0.5 * np.asarray(u, dtype=np.float64)
    soft = np.logaddexp(np.asarray(0.0, dtype=np.float64), half)
    decay = np.exp(-np.abs(half))
    sig = np.where(half >= 0.0, 1.0, decay) / (1.0 + decay)
    return soft * soft, soft * sig


def _exact_interp(u):
    """``F(u)`` and ``F'(u)`` as Decimals.  ``1 + e^(u/2)`` must resolve
    ``e^(u/2)`` against 1, so the precision grows with ``|u|``: about
    ``|u| / 4.6`` digits sit below 1, on top of 40 for the result."""
    with localcontext() as ctx:
        ctx.prec = 40 + int(abs(u) / 4.6)
        grow = (Decimal(float(u)) / 2).exp()
        soft = (1 + grow).ln()
        return soft * soft, soft * grow / (1 + grow)


def _ulps(got, exact):
    """Distance of each float in ``got`` from its Decimal in ``exact``, in
    units of the spacing of doubles at the correctly rounded value."""
    return np.array([
        float(abs(Decimal(float(g)) - e) / Decimal(float(np.spacing(float(e)))))
        for g, e in zip(got, exact)
    ])


#: A grid over [-1500, 1500] (u = 0 included), a dense sample of the range
#: the SRAM solves visit, and the edges: +-1e-300 and +-1489, where
#: ``exp(-|u/2|)`` sits at the bottom of the subnormal range.
_INTERP_POINTS = np.concatenate([
    np.linspace(-1500.0, 1500.0, 241),
    np.random.default_rng(2).uniform(-60.0, 60.0, 200),
    [1e-300, -1e-300, 1489.0, -1489.0],
])


class TestInterpolationAccuracy:
    """F and F' within 4 ulp of a Decimal reference, with no floating-point
    exception, in the current form and in the oracle it replaced."""

    @pytest.fixture(scope="class")
    def exact(self):
        return [list(col) for col in zip(*map(_exact_interp, _INTERP_POINTS))]

    @pytest.mark.parametrize("interp", [_interp_f_and_deriv, _logaddexp_interp],
                             ids=["one_exponential", "logaddexp_oracle"])
    def test_within_4_ulp(self, interp, exact):
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = interp(_INTERP_POINTS)
        for value, want in zip(got, exact):
            ulps = _ulps(value, want)
            assert ulps.max() <= 4.0, (
                f"{ulps.max():.2f} ulp at u = {_INTERP_POINTS[ulps.argmax()]!r}"
            )
