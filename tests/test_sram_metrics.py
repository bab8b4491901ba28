"""Tests for the SRAM performance metrics (repro.sram.metrics)."""

import numpy as np
import pytest

from repro.sram.cell import _VTC_BLOCK_LANES
from repro.sram.metrics import (
    ReadCurrentMetric,
    ReadNoiseMarginMetric,
    SramMetric,
    WriteNoiseMarginMetric,
)


class TestInterface:
    def test_dimension_defaults(self, rnm_metric, iread_metric):
        assert rnm_metric.dimension == 6
        assert iread_metric.dimension == 2

    def test_read_current_default_devices_are_m1_m3(self, iread_metric):
        assert iread_metric.mismatch.devices == ("pd_l", "ax_l")
        assert iread_metric.mismatch.paper_labels() == ("dVth1", "dVth3")

    def test_dimension_mismatch_raises(self, rnm_metric):
        with pytest.raises(ValueError):
            rnm_metric(np.zeros((3, 4)))

    def test_single_point_accepted(self, rnm_metric):
        out = rnm_metric(np.zeros(6))
        assert out.shape == (1,)

    def test_invalid_chunk_size_raises(self, cell):
        with pytest.raises(ValueError, match="chunk_size"):
            ReadCurrentMetric(cell, chunk_size=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, rnm_metric, iread_metric, bad):
        """A non-finite mismatch is not a circuit: it must raise, not come
        back as a margin or current that reads as a failure."""
        from repro.sram.problems import read_current_problem, read_noise_margin_problem

        rnm_row = np.zeros((2, 6))
        rnm_row[1, 3] = bad
        iread_row = np.array([[0.0, 0.0], [bad, 0.0]])
        for call, x in (
            (rnm_metric, rnm_row),
            (iread_metric, iread_row),
            (read_noise_margin_problem().indicator, np.full((1, 6), bad)),
            (read_current_problem().indicator, np.array([[bad, 0.0]])),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                call(x)

    def test_base_class_not_implemented(self, cell):
        metric = SramMetric(cell)
        with pytest.raises(NotImplementedError):
            metric(np.zeros((1, 6)))

    def test_chunking_invariance(self, cell):
        """Evaluating in chunks of 3 must equal one big batch."""
        big = ReadCurrentMetric(cell, chunk_size=4096)
        small = ReadCurrentMetric(cell, chunk_size=3)
        x = np.random.default_rng(0).standard_normal((10, 2))
        np.testing.assert_allclose(big(x), small(x), rtol=1e-12)
        # The two-side VTC solve: a chunk spanning a row block against
        # chunks of 3, bit for bit.
        rows = _VTC_BLOCK_LANES // (2 * 81) + 3
        x = 3.0 * np.random.default_rng(1).standard_normal((rows, 6))
        np.testing.assert_array_equal(
            ReadNoiseMarginMetric(cell)(x),
            ReadNoiseMarginMetric(cell, chunk_size=3)(x),
        )


class TestReadNoiseMargin:
    def test_nominal_value_plausible(self, rnm_metric):
        rnm = rnm_metric(np.zeros(6))[0]
        assert 0.15 < rnm < 0.35

    def test_weak_pulldown_degrades(self, rnm_metric):
        x = np.zeros((2, 6))
        x[1, 0] = 4.0  # M1 vth up
        vals = rnm_metric(x)
        assert vals[1] < vals[0]

    def test_strong_access_degrades(self, rnm_metric):
        x = np.zeros((2, 6))
        x[1, 2] = -4.0  # M3 vth down
        vals = rnm_metric(x)
        assert vals[1] < vals[0]

    def test_goes_negative_continuously(self, rnm_metric):
        """The signed margin must cross zero smoothly along the failure
        direction — the property binary search depends on."""
        alphas = np.linspace(0, 16, 9)
        x = np.zeros((9, 6))
        x[:, 0] = alphas
        x[:, 2] = -alphas
        vals = rnm_metric(x)
        assert vals[0] > 0 and vals[-1] < 0
        assert np.all(np.diff(vals) < 0.02)  # essentially monotone decline

    def test_deterministic(self, rnm_metric, rng):
        x = rng.standard_normal((5, 6))
        np.testing.assert_array_equal(rnm_metric(x), rnm_metric(x))


class TestWriteNoiseMargin:
    def test_nominal_value_plausible(self, wnm_metric):
        wnm = wnm_metric(np.zeros(6))[0]
        assert 0.3 < wnm < 0.6

    def test_weak_access_degrades(self, wnm_metric):
        x = np.zeros((2, 6))
        x[1, 2] = 4.0  # M3 vth up: write path weaker
        vals = wnm_metric(x)
        assert vals[1] < vals[0]

    def test_strong_pullup_degrades(self, wnm_metric):
        x = np.zeros((2, 6))
        x[1, 4] = -4.0  # M5 vth down: retention stronger
        vals = wnm_metric(x)
        assert vals[1] < vals[0]

    def test_goes_negative_at_extreme_corner(self, wnm_metric):
        x = np.zeros((1, 6))
        x[0, 2] = 14.0
        x[0, 4] = -14.0
        assert wnm_metric(x)[0] < 0


class TestReadCurrent:
    def test_nominal_plausible(self, iread_metric):
        i = iread_metric(np.zeros(2))[0]
        assert 5e-5 < i < 2e-4

    def test_monotone_weakening(self, iread_metric):
        x = np.stack([np.linspace(0, 4, 5), np.linspace(0, 4, 5)], axis=1)
        vals = iread_metric(x)
        assert np.all(np.diff(vals) < 0)

    def test_upset_region_collapses_current(self, iread_metric):
        # Strong access + weak pull-down: static read upset (Section V-B).
        vals = iread_metric(np.array([[5.0, -4.0]]))
        assert vals[0] < 1e-6

    def test_six_device_variant(self, cell):
        metric = ReadCurrentMetric(
            cell, devices=("pd_l", "pd_r", "ax_l", "ax_r", "pu_l", "pu_r")
        )
        assert metric.dimension == 6
        out = metric(np.zeros(6))
        assert out[0] > 1e-5
