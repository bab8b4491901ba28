"""Tests for the process-parallel first-stage Gibbs fan-out.

The first stage's determinism contract is *stronger* than the sampled
stages': chain ``i`` always draws from the spawn-indexed child stream at
its global chain index and the bisection searches between draws are
RNG-free, so the merged chain is bit-identical not only for every worker
count and backend but for every chain-group size — grouping is purely a
performance knob.  These tests pin that contract, the sharded blockade
screening and the starting-point spread.
"""

import numpy as np
import pytest

from repro.baselines.blockade import statistical_blockade
from repro.gibbs.starting_point import StartingPoint
from repro.gibbs.two_stage import (
    _spread_starting_points,
    gibbs_importance_sampling,
    run_first_stage,
)
from repro.mc.counter import CountedMetric
from repro.mc.indicator import FailureSpec
from repro.parallel import (
    ParallelExecutor,
    merge_blockade_shards,
    merge_chain_shards,
    run_gibbs_shard,
    spawn_seed_sequences,
)
from repro.synthetic import LinearMetric

BACKENDS = ("serial", "thread", "process")


@pytest.fixture
def problem():
    return LinearMetric(np.array([1.0, 0.5]), 2.2).problem("halfspace")


def _gibbs(problem, coordinate_system="spherical", **kwargs):
    defaults = dict(
        dimension=problem.dimension,
        coordinate_system=coordinate_system,
        n_gibbs=12,
        n_chains=4,
        n_second_stage=300,
        rng=11,
    )
    defaults.update(kwargs)
    return gibbs_importance_sampling(problem.metric, problem.spec, **defaults)


def _assert_same_run(a, b):
    assert a.failure_probability == b.failure_probability
    assert a.n_first_stage == b.n_first_stage
    assert a.n_second_stage == b.n_second_stage
    np.testing.assert_array_equal(
        a.extras["chain"].samples, b.extras["chain"].samples
    )
    np.testing.assert_array_equal(
        a.extras["chain"].per_chain_simulations,
        b.extras["chain"].per_chain_simulations,
    )


class TestFirstStageBitIdentity:
    """The fan-out battery: every backend/worker count, one answer."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_spherical_matches_inline_reference(
        self, problem, backend, n_workers
    ):
        reference = _gibbs(problem, n_workers=1)
        run = _gibbs(problem, n_workers=n_workers, backend=backend)
        _assert_same_run(run, reference)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_cartesian_matches_inline_reference(self, problem, backend):
        reference = _gibbs(problem, coordinate_system="cartesian", n_workers=1)
        run = _gibbs(
            problem, coordinate_system="cartesian",
            n_workers=2, backend=backend,
        )
        _assert_same_run(run, reference)

    @pytest.mark.parametrize("group", [1, 2, 3, 4])
    def test_grouping_never_changes_results(self, problem, group):
        reference = _gibbs(problem, n_workers=1)
        run = _gibbs(
            problem, n_workers=2, backend="thread", chain_group_size=group
        )
        _assert_same_run(run, reference)

    def test_matches_direct_lockstep_with_chain_rngs(self, problem):
        """One merged fan-out == one run_lockstep call on per-chain streams."""
        from repro.gibbs.cartesian import CartesianGibbs

        starts = np.array([[3.0, 1.0], [2.5, 2.0], [3.5, 0.5]])
        seed, n_gibbs = 42, 10
        executor = ParallelExecutor(n_workers=2, backend="serial")
        merged = run_first_stage(
            problem.metric, problem.spec, starts, n_gibbs, executor,
            coordinate_system="cartesian", seed=seed, chain_group_size=1,
        )
        sampler = CartesianGibbs(problem.metric, problem.spec, 2)
        direct = sampler.run_lockstep(
            starts, n_gibbs,
            chain_rngs=[
                np.random.default_rng(child)
                for child in spawn_seed_sequences(seed, 3)
            ],
            verify_start=False,
        )
        np.testing.assert_array_equal(merged.samples, direct.samples)
        np.testing.assert_array_equal(
            merged.per_chain_simulations, direct.per_chain_simulations
        )

    def test_process_counts_fold_exactly(self, problem):
        """Cross-process simulation accounting equals the inline run's."""
        inline = _gibbs(problem, n_workers=1)
        fanned = _gibbs(problem, n_workers=2, backend="process")
        assert fanned.n_first_stage == inline.n_first_stage

    def test_external_count_records_worker_portion(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        gibbs_importance_sampling(
            counted, problem.spec, n_gibbs=8, n_chains=2,
            n_second_stage=300, rng=1, n_workers=2, backend="process",
        )
        assert 0 < counted.external_count <= counted.count
        assert "via workers" in repr(counted)

    def test_single_chain_runs_inline(self, problem):
        """The paper's single chain runs inline on the flow's own stream,
        whatever pool the flow holds."""
        serial = _gibbs(problem, n_chains=1, n_workers=None)
        sharded = _gibbs(problem, n_chains=1, n_workers=2, backend="process")
        np.testing.assert_array_equal(
            serial.extras["chain"].samples, sharded.extras["chain"].samples
        )

    def test_merge_rejects_missing_chains(self, problem):
        starts = np.array([[3.0, 1.0], [2.5, 2.0]])
        executor = ParallelExecutor(n_workers=1, backend="serial")
        from repro.gibbs.two_stage import GibbsShardTask
        from repro.parallel.sharding import plan_shards

        shards = plan_shards(2, 1)
        seeds = spawn_seed_sequences(0, 2)
        task = GibbsShardTask(
            shard=shards[0], chain_seeds=seeds[:1], metric=problem.metric,
            spec=problem.spec, dimension=2, coordinate_system="cartesian",
            starts=starts[:1], n_gibbs=5,
        )
        result = run_gibbs_shard(task)
        with pytest.raises(ValueError, match="cover 1 chains, expected 2"):
            merge_chain_shards([result], 2)


class TestShardedBlockade:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_backend_battery_is_bit_identical(
        self, problem, backend, n_workers
    ):
        reference = statistical_blockade(
            problem.metric, problem.spec, 6000,
            dimension=problem.dimension, n_train=300, rng=4,
            n_workers=1, shard_size=1024,
        )
        run = statistical_blockade(
            problem.metric, problem.spec, 6000,
            dimension=problem.dimension, n_train=300, rng=4,
            n_workers=n_workers, backend=backend, shard_size=1024,
        )
        assert run.failure_probability == reference.failure_probability
        assert run.n_second_stage == reference.n_second_stage
        assert run.extras["n_blocked"] == reference.extras["n_blocked"]

    def test_training_stage_ignores_shard_grid(self, problem):
        """The grid only touches screening: training thresholds match."""
        default = statistical_blockade(
            problem.metric, problem.spec, 4000,
            dimension=problem.dimension, n_train=300, rng=8,
        )
        regridded = statistical_blockade(
            problem.metric, problem.spec, 4000,
            dimension=problem.dimension, n_train=300, rng=8,
            n_workers=2, backend="serial", shard_size=1000,
        )
        assert (
            regridded.extras["blockade_threshold"]
            == default.extras["blockade_threshold"]
        )

    def test_process_counts_fold(self, problem):
        counted = CountedMetric(problem.metric, problem.dimension)
        result = statistical_blockade(
            counted, problem.spec, 6000, n_train=300, rng=4,
            n_workers=2, backend="process", shard_size=1024,
        )
        assert counted.count == 300 + result.n_second_stage

    def test_merge_rejects_partial_coverage(self):
        class R:
            count, n_failures, n_simulated = 10, 1, 2

        with pytest.raises(ValueError, match="expected 30"):
            merge_blockade_shards([R()], 30)


def _needle_metric(x):
    # Fails only inside a 1e-6 ball around (3, 0): jittered candidates
    # essentially never land there.
    return np.linalg.norm(x - np.array([3.0, 0.0]), axis=1) - 1e-6


class TestSpreadStartingPoints:
    def _start(self):
        return StartingPoint(
            x=np.array([3.0, 0.0]), r=3.0, alpha=np.array([0.0]),
            n_simulations=0, surrogate=None,
        )

    def test_unplaceable_chains_raise_clearly(self):
        spec = FailureSpec(0.0, fail_below=True)
        with pytest.raises(ValueError, match="chain_jitter=0"):
            _spread_starting_points(
                _needle_metric, spec, self._start(), 4,
                np.random.default_rng(0), zeta=8.0, jitter=0.5,
            )

    def test_zero_jitter_opts_into_duplicates(self):
        spec = FailureSpec(0.0, fail_below=True)
        points = _spread_starting_points(
            _needle_metric, spec, self._start(), 4,
            np.random.default_rng(0), zeta=8.0, jitter=0.0,
        )
        np.testing.assert_array_equal(points, np.tile([3.0, 0.0], (4, 1)))

    @pytest.mark.parametrize("dimension", [6, 24])
    @pytest.mark.parametrize("region", ["halfspace", "sphere"])
    def test_flat_boundary_places_every_chain(self, region, dimension):
        """A start on a convex pass region's boundary: no seed fails.

        Noise drawn in the start's tangent plane keeps every candidate
        beyond the tangent hyperplane, so with the default jitter all ten
        chains are placed on every one of 200 seeds (a radial noise
        component missed on ~8% of seeds at 4 sigma).
        """
        from repro.synthetic import SphereTailMetric

        unit = np.ones(dimension) / np.sqrt(dimension)
        if region == "halfspace":
            radius = 4.0
            metric = LinearMetric(unit, radius)
        else:
            radius = 4.0 + np.sqrt(dimension)
            metric = SphereTailMetric(radius, dimension)
        spec = metric.problem().spec
        x = unit * radius * (1.0 + 1e-12)
        assert spec.indicator(metric(x[np.newaxis]))[0]
        start = StartingPoint(
            x=x, r=float(np.linalg.norm(x)), alpha=unit,
            n_simulations=0, surrogate=None,
        )
        for seed in range(200):
            points = _spread_starting_points(
                metric, spec, start, 10, np.random.default_rng(seed),
                zeta=8.0, jitter=0.25,
            )
            assert spec.indicator(metric(points)).all()

    def test_error_propagates_from_the_full_flow(self, problem):
        spec = FailureSpec(0.0, fail_below=True)
        with pytest.raises(ValueError, match="could not verify"):
            gibbs_importance_sampling(
                _needle_metric, spec, dimension=2, n_gibbs=5, n_chains=3,
                n_second_stage=100, rng=0, start=self._start(),
            )


class TestPersistentPool:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_is_reused_inside_context(self, backend):
        executor = ParallelExecutor(n_workers=2, backend=backend)
        with executor:
            first = executor._pool
            assert first is not None
            executor.map(_square, [1, 2, 3])
            assert executor._pool is first
        assert executor._pool is None
        # And per-call pools still work after the context closes.
        assert executor.map(_square, [3]) == [9]

    def test_inline_context_is_noop(self):
        executor = ParallelExecutor(n_workers=1, backend="process")
        with executor:
            assert executor._pool is None


def _square(x):
    return x * x
