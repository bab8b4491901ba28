"""Tests for the wide-ladder interval search and cross-round warm starts.

Four contracts are pinned here:

1. **Legacy bit-identity** — with ``ladder_width=1`` the unified search
   reproduces the pre-ladder bisection *bit for bit*: same bounds, same
   per-chain simulation counts.  The reference is a frozen port of the
   original scalar implementation, kept in this file so the contract
   survives refactors of the production code.
2. **Ladder semantics** — ``ladder_width=k`` reaches at least classic
   bisection resolution in ``ceil(bisect_iters / log2(k+1))`` rounds,
   with exact simulation accounting (``k`` points per active side per
   round) and verified-failing returned bounds.
3. **Warm-start tolerance** — the samplers always warm-start each
   chain's Newton solves, which changes results only within solver
   tolerance: seeded metric evaluations and default sampler runs agree
   with the cold-start oracle (:class:`ColdStartMetric`) to tight
   ``allclose`` bounds and exact simulation accounting, while solving
   fewer Newton lanes.  The carrier itself is unit-tested (one-shot
   lanes, all-or-nothing seeds, chunk scoping).
4. **Telemetry** — the ``bisect.rounds`` and ``newton.lane_*`` counters
   appear under an active recorder and nothing is recorded without one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.circuit import SolverStateCarrier, use_carrier
from repro.gibbs.bounds import (
    batched_failure_interval,
    failure_interval,
    ladder_rounds,
)
from repro.gibbs.cartesian import CartesianGibbs
from repro.gibbs.spherical import SphericalGibbs
from repro.gibbs.starting_point import find_starting_point
from repro.parallel import ParallelExecutor
from repro.gibbs.two_stage import run_first_stage
from repro.sram.metrics import ReadNoiseMarginMetric
from repro.sram.problems import read_noise_margin_problem
from repro.synthetic import LinearMetric

ZETA = 8.0


class ColdStartMetric:
    """Cold-start oracle: ``metric`` evaluated with no solver-state carrier.

    The samplers always warm-start; a sampler driving this wrapper solves
    every Newton system from its default guess instead, as the samplers
    did before warm starts became the default.
    """

    def __init__(self, metric):
        self.metric = metric
        self.dimension = metric.dimension

    def __call__(self, x):
        with use_carrier(None):
            return self.metric(x)


@pytest.fixture(scope="module")
def rnm_start():
    """The 6-D read-noise-margin problem and a verified failure start."""
    prob = read_noise_margin_problem()
    start = find_starting_point(
        prob.metric, prob.spec, prob.dimension,
        np.random.default_rng(5), doe_budget=150,
    )
    return prob, start


def _legacy_failure_interval(fails, current, lo, hi, bisect_iters=5):
    """Frozen port of the pre-ladder scalar bisection (reference only)."""
    if not lo <= current <= hi:
        raise ValueError(
            f"current value {current} outside clamp bounds [{lo}, {hi}]"
        )
    endpoint_fail = np.asarray(
        fails(np.array([lo, hi], dtype=float)), dtype=bool
    )
    n_sims = 2
    left_active = not bool(endpoint_fail[0])
    right_active = not bool(endpoint_fail[1])
    left_pass, left_fail = lo, float(current)
    right_fail, right_pass = float(current), hi
    for _ in range(bisect_iters):
        queries = []
        if left_active:
            queries.append(0.5 * (left_pass + left_fail))
        if right_active:
            queries.append(0.5 * (right_fail + right_pass))
        if not queries:
            break
        outcome = np.asarray(fails(np.array(queries)), dtype=bool)
        n_sims += len(queries)
        idx = 0
        if left_active:
            mid = queries[idx]
            if outcome[idx]:
                left_fail = mid
            else:
                left_pass = mid
            idx += 1
        if right_active:
            mid = queries[idx]
            if outcome[idx]:
                right_fail = mid
            else:
                right_pass = mid
    lower = lo if not left_active else left_fail
    upper = hi if not right_active else right_fail
    return lower, upper, n_sims


@st.composite
def regions(draw):
    """One failure interval inside the clamps plus a failing current."""
    if draw(st.booleans()):
        a = -ZETA
    else:
        a = draw(st.floats(-7.5, 7.0))
    if draw(st.booleans()):
        b = ZETA
    else:
        b = min(a + draw(st.floats(0.1, 4.0)), 7.9)
    t = draw(st.floats(0.0, 1.0))
    return a, b, a + t * (b - a)


def _interval_fails(a, b):
    return lambda v: (np.atleast_1d(v) >= a) & (np.atleast_1d(v) <= b)


# --------------------------------------------------------------------------
# 1. Ladder round arithmetic
# --------------------------------------------------------------------------

class TestLadderRounds:
    @pytest.mark.parametrize("iters,width,expected", [
        (5, 1, 5),    # classic bisection: one round per iteration
        (5, 3, 3),    # 4x shrink per round: ceil(5 / 2)
        (8, 7, 3),    # 8x shrink per round: ceil(8 / 3)
        (5, 7, 2),
        (1, 1, 1),
        (1, 15, 1),
    ])
    def test_known_values(self, iters, width, expected):
        assert ladder_rounds(iters, width) == expected

    @given(st.integers(1, 20), st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_resolution_never_worse_than_bisection(self, iters, width):
        # (k+1)-fold shrink per round for ladder_rounds rounds must reach
        # at least the 2**iters shrink of classic bisection.
        rounds = ladder_rounds(iters, width)
        assert (width + 1) ** rounds >= 2 ** iters

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="ladder_width"):
            ladder_rounds(5, 0)


# --------------------------------------------------------------------------
# 2. ladder_width=1 is the legacy bisection, bit for bit
# --------------------------------------------------------------------------

class TestLegacyBitIdentity:
    @given(regions(), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_scalar_matches_frozen_reference(self, region, bisect_iters):
        a, b, current = region
        fails = _interval_fails(a, b)
        ref_lower, ref_upper, ref_sims = _legacy_failure_interval(
            fails, current, -ZETA, ZETA, bisect_iters=bisect_iters
        )
        new = failure_interval(
            fails, current, -ZETA, ZETA, bisect_iters=bisect_iters
        )
        assert new.lower == ref_lower
        assert new.upper == ref_upper
        assert new.n_simulations == ref_sims

    @given(st.lists(regions(), min_size=1, max_size=5), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_frozen_reference(self, chain_regions, iters):
        currents = np.array([c for _, _, c in chain_regions])

        def batched_fails(chain_idx, values):
            lo_arr = np.array([chain_regions[c][0] for c in chain_idx])
            hi_arr = np.array([chain_regions[c][1] for c in chain_idx])
            return (values >= lo_arr) & (values <= hi_arr)

        batched = batched_failure_interval(
            batched_fails, currents, -ZETA, ZETA, bisect_iters=iters
        )
        for c, (a, b, current) in enumerate(chain_regions):
            ref_lower, ref_upper, ref_sims = _legacy_failure_interval(
                _interval_fails(a, b), current, -ZETA, ZETA,
                bisect_iters=iters,
            )
            assert batched.lower[c] == ref_lower
            assert batched.upper[c] == ref_upper
            assert batched.per_chain_simulations[c] == ref_sims

    def test_explicit_defaults_match_omitted_defaults(self):
        # The ladder keyword changes nothing when left at its default —
        # a sampler built with explicit ladder_width=1 is the same sampler.
        metric = LinearMetric(np.array([1.0, 0.5]), 2.2)
        prob = metric.problem("halfspace")
        x0 = np.array([3.0, 1.0])
        plain = CartesianGibbs(prob.metric, prob.spec)
        explicit = CartesianGibbs(prob.metric, prob.spec, ladder_width=1)
        a = plain.run(x0, 25, np.random.default_rng(9))
        b = explicit.run(x0, 25, np.random.default_rng(9))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.n_simulations == b.n_simulations


# --------------------------------------------------------------------------
# 3. Wide-ladder semantics
# --------------------------------------------------------------------------

class TestLadderSearch:
    @given(regions(), st.integers(1, 8), st.integers(2, 9))
    @settings(max_examples=80, deadline=None)
    def test_resolution_and_verified_bounds(self, region, iters, width):
        a, b, current = region
        fails = _interval_fails(a, b)
        result = failure_interval(
            fails, current, -ZETA, ZETA,
            bisect_iters=iters, ladder_width=width,
        )
        # Returned bounds are verified failing and bracket the current
        # value.
        assert bool(fails(result.lower)[0])
        assert bool(fails(result.upper)[0])
        assert result.lower <= current <= result.upper
        # At least classic-bisection resolution on each searched side.
        if a > -ZETA:
            assert result.lower - a <= (current + ZETA) / 2 ** iters + 1e-12
        else:
            assert result.lower == -ZETA
        if b < ZETA:
            assert b - result.upper <= (ZETA - current) / 2 ** iters + 1e-12
        else:
            assert result.upper == ZETA

    @pytest.mark.parametrize("width", [1, 2, 5, 7])
    def test_exact_simulation_accounting(self, width):
        iters = 5
        rounds = ladder_rounds(iters, width)
        # Interior region: both sides active every round.
        interior = failure_interval(
            _interval_fails(-1.0, 1.0), 0.0, -ZETA, ZETA,
            bisect_iters=iters, ladder_width=width,
        )
        assert interior.n_simulations == 2 + rounds * 2 * width
        # Region touching the left clamp: only the right side searches.
        clamped = failure_interval(
            _interval_fails(-ZETA, 1.0), 0.0, -ZETA, ZETA,
            bisect_iters=iters, ladder_width=width,
        )
        assert clamped.n_simulations == 2 + rounds * width
        # Region covering both clamps: the endpoint check settles it.
        full = failure_interval(
            _interval_fails(-ZETA, ZETA), 0.0, -ZETA, ZETA,
            bisect_iters=iters, ladder_width=width,
        )
        assert full.n_simulations == 2
        assert (full.lower, full.upper) == (-ZETA, ZETA)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="ladder_width"):
            failure_interval(
                _interval_fails(-1, 1), 0.0, -ZETA, ZETA, ladder_width=0
            )
        with pytest.raises(ValueError, match="ladder_width"):
            CartesianGibbs(
                LinearMetric(np.array([1.0]), 0.0),
                LinearMetric(np.array([1.0]), 0.0).problem("t").spec,
                ladder_width=0,
            )


# --------------------------------------------------------------------------
# 4. Fan-out invariance with the ladder enabled
# --------------------------------------------------------------------------

class TestFanOutInvariance:
    """Grouping/backend stay pure performance knobs under ladder + warm."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_ladder_warm_chains_identical_across_backends(self, backend):
        prob = LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")
        starts = np.tile(np.array([3.0, 1.0]), (4, 1))
        kwargs = dict(
            coordinate_system="cartesian", seed=11, ladder_width=3,
        )
        with ParallelExecutor(n_workers=1, backend="serial") as reference_pool:
            reference = run_first_stage(
                prob.metric, prob.spec, starts, 10, reference_pool,
                chain_group_size=4, **kwargs,
            )
        with ParallelExecutor(n_workers=2, backend=backend) as pool:
            fanned = run_first_stage(
                prob.metric, prob.spec, starts, 10, pool,
                chain_group_size=1, **kwargs,
            )
        np.testing.assert_array_equal(reference.samples, fanned.samples)
        np.testing.assert_array_equal(
            reference.per_chain_simulations, fanned.per_chain_simulations
        )


# --------------------------------------------------------------------------
# 5. The solver-state carrier
# --------------------------------------------------------------------------

class TestSolverStateCarrier:
    def test_take_lanes_is_one_shot_and_size_gated(self):
        carrier = SolverStateCarrier()
        carrier.set_lanes(np.array([0, 1, 2]))
        assert carrier.take_lanes(2) is None      # size mismatch: cleared
        assert carrier.take_lanes(3) is None      # already consumed
        carrier.set_lanes(np.array([4, 5]))
        lanes = carrier.take_lanes(2)
        np.testing.assert_array_equal(lanes, [4, 5])
        assert carrier.take_lanes(2) is None

    def test_seed_is_all_or_nothing(self):
        carrier = SolverStateCarrier()
        carrier.store("k", np.array([0, 1]), np.arange(6.0).reshape(3, 2))
        assert carrier.seed("k", np.array([0, 2])) is None  # lane 2 missing
        seeded = carrier.seed("k", np.array([1, 0]))
        np.testing.assert_array_equal(
            seeded, np.arange(6.0).reshape(3, 2)[:, [1, 0]]
        )

    def test_chunk_scope_routes_seed_and_store(self):
        carrier = SolverStateCarrier()
        carrier.store("k", np.array([7, 8]), np.array([[1.0, 2.0]]))
        carrier.begin_chunk(np.array([8, 7]))
        np.testing.assert_array_equal(carrier.chunk_seed("k"), [[2.0, 1.0]])
        carrier.chunk_store("k", np.array([[20.0, 10.0]]))
        carrier.end_chunk()
        assert carrier.chunk_seed("k") is None    # no active chunk
        np.testing.assert_array_equal(
            carrier.seed("k", np.array([7, 8])), [[10.0, 20.0]]
        )


# --------------------------------------------------------------------------
# 6. Warm-start tolerance batteries
# --------------------------------------------------------------------------

class TestMetricWarmTolerance:
    def test_seeded_metric_matches_cold(self, cell):
        metric = ReadNoiseMarginMetric(cell)
        rng = np.random.default_rng(11)
        deltas = rng.normal(0.0, 0.05, (16, metric.dimension))
        cold = metric.evaluate(deltas)
        carrier = SolverStateCarrier()
        with use_carrier(carrier):
            carrier.set_lanes(np.arange(16))
            first = metric.evaluate(deltas)       # populates the store
            carrier.set_lanes(np.arange(16))
            second = metric.evaluate(deltas)      # runs fully seeded
        np.testing.assert_array_equal(first, cold)
        np.testing.assert_allclose(second, cold, atol=1e-6)

    def test_sampler_warm_run_matches_cold_within_tolerance(self, rnm_start):
        prob, start = rnm_start
        cold = CartesianGibbs(ColdStartMetric(prob.metric), prob.spec).run(
            start.x, 8, np.random.default_rng(3)
        )
        warm = CartesianGibbs(prob.metric, prob.spec).run(
            start.x, 8, np.random.default_rng(3)
        )
        assert warm.n_simulations == cold.n_simulations
        np.testing.assert_allclose(warm.samples, cold.samples, atol=1e-5)

    @pytest.mark.parametrize("coordinates", ["spherical", "cartesian"])
    def test_default_sampler_solves_fewer_newton_lanes(
        self, rnm_start, coordinates
    ):
        prob, start = rnm_start

        def run(metric):
            recorder = telemetry.Recorder(run_id=coordinates)
            rng = np.random.default_rng(3)
            with telemetry.activate(recorder):
                if coordinates == "spherical":
                    chain = SphericalGibbs(metric, prob.spec).run(
                        start.r, start.alpha, 12, rng
                    )
                else:
                    chain = CartesianGibbs(metric, prob.spec).run(
                        start.x, 12, rng
                    )
            return chain, recorder.counters["newton.lane_solves"]

        warm, warm_lanes = run(prob.metric)
        cold, cold_lanes = run(ColdStartMetric(prob.metric))
        assert warm.n_simulations == cold.n_simulations
        np.testing.assert_allclose(warm.samples, cold.samples, atol=1e-5)
        assert warm_lanes < cold_lanes


# --------------------------------------------------------------------------
# 7. Telemetry counters
# --------------------------------------------------------------------------

class TestTelemetryCounters:
    def test_bisect_rounds_counter(self):
        recorder = telemetry.Recorder(run_id="t")
        with telemetry.activate(recorder):
            failure_interval(
                _interval_fails(-1.0, 1.0), 0.0, -ZETA, ZETA,
                bisect_iters=6, ladder_width=3,
            )
        assert recorder.counters["bisect.rounds"] == ladder_rounds(6, 3)
        assert recorder.counters["bisect.searches"] == 1
        assert recorder.counters["bisect.sims"] > 0

    def test_newton_lane_counters(self, cell):
        metric = ReadNoiseMarginMetric(cell)
        deltas = np.zeros((4, metric.dimension))
        recorder = telemetry.Recorder(run_id="t")
        with telemetry.activate(recorder):
            metric.evaluate(deltas)
        assert recorder.counters["newton.lane_solves"] > 0
        assert recorder.counters["newton.lane_iters"] >= \
            recorder.counters["newton.lane_solves"]

    def test_no_recorder_no_events(self, cell):
        witness = telemetry.Recorder(run_id="witness")
        metric = ReadNoiseMarginMetric(cell)
        failure_interval(
            _interval_fails(-1.0, 1.0), 0.0, -ZETA, ZETA, ladder_width=3
        )
        metric.evaluate(np.zeros((2, metric.dimension)))
        assert witness.counters == {}
        assert witness.spans == []
