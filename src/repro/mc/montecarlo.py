"""Brute-force Monte-Carlo failure-rate estimation (Eq. 5).

Draws samples directly from the process-variation law f(x) = N(0, I) and
averages the failure indicator.  Hopelessly slow for real SRAM failure
rates — which is the paper's premise — but indispensable as the golden
reference of Table II, where 8.7 million raw samples validate the
importance-sampling methods.  Evaluation streams in chunks so the memory
footprint stays flat no matter how many samples are requested.

The workload is split into a fixed grid of shards (one child RNG stream
per shard, spawned from a single seed sequence) and run by the
:mod:`repro.parallel` layer — inline by default, or fanned out across
``n_workers`` processes.  The shard grid depends only on ``n_samples``
and ``shard_size`` — never on the worker count — so the estimate,
failure count and convergence trace are bit-identical for every
``n_workers`` and backend.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mc.indicator import FailureSpec
from repro.mc.results import ConvergenceTrace, EstimationResult
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.parallel.ledger import metric_fingerprint, open_ledger, seed_key
from repro.parallel.sharding import checkpoint_grid, merge_mc_shards, plan_shards
from repro.parallel.workers import (
    MCShardTask,
    distinct_hosts,
    fold_external_counts,
    run_mc_shard,
)
from repro.stats.confidence import montecarlo_relative_error
from repro.telemetry import context as _telemetry
from repro.utils.rng import SeedLike, as_seed_sequence, spawn_seed_sequences


def brute_force_monte_carlo(
    metric: Callable,
    spec: FailureSpec,
    n_samples: int,
    dimension: Optional[int] = None,
    rng: SeedLike = None,
    chunk_size: int = 65536,
    trace_points: int = 100,
    n_workers: Optional[int] = None,
    backend: str = "process",
    shard_size: int = 65536,
    executor: Optional[ParallelExecutor] = None,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Estimate P_f by plain Monte Carlo with ``n_samples`` simulations.

    The convergence trace records the running estimate at ``trace_points``
    logarithmically spaced counts, so sims-to-accuracy comparisons against
    importance sampling are possible without storing every indicator.

    Parameters
    ----------
    n_workers:
        How many shards run at once on ``backend``; ``None`` (default)
        runs them inline, one after another.  The run is always the same
        grid of ``shard_size``-sample shards with per-shard child streams,
        so the estimate depends on the seed and the shard grid only — the
        same seed gives bit-identical results for every worker count and
        backend.
    backend:
        ``"process"`` / ``"thread"`` / ``"serial"`` (see
        :class:`repro.parallel.ParallelExecutor`).
    chunk_size:
        Samples evaluated per metric call inside a shard.  A memory bound
        only: it never changes the numbers.
    shard_size:
        Samples per shard.  The grid selects which stream draws which
        sample, so it is part of the run's identity.
    executor:
        Prebuilt :class:`~repro.parallel.ParallelExecutor`; overrides
        ``n_workers``/``backend``.
    checkpoint_dir:
        Persist every completed shard to an append-only ledger in this
        directory (format ``repro-ledger-v1``, see ``docs/ELASTIC.md``).
        A killed run re-invoked with the same inputs resumes from the
        ledger, re-executing only the missing shards, with a merged result
        bit-identical to an uninterrupted run.  Pass an explicit integer
        ``rng`` seed (or a ``SeedSequence``): with ``None`` or a live
        ``Generator`` every invocation keys a different ledger and nothing
        ever resumes.
    resume:
        With ``checkpoint_dir``: replay an existing matching ledger
        (default).  ``False`` truncates it and starts the run over.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    dimension = dimension if dimension is not None else getattr(metric, "dimension")
    pool = resolve_executor(executor, n_workers, backend)
    with _telemetry.span("mc.run", samples=int(n_samples)) as stage_span:
        shard_size = int(shard_size)
        shards = plan_shards(n_samples, shard_size)
        root = as_seed_sequence(rng)
        seeds = spawn_seed_sequences(root, len(shards))
        checkpoints = checkpoint_grid(n_samples, trace_points)
        ship_telemetry = _telemetry.ship_to_workers(pool)
        tasks = [
            MCShardTask(
                shard=shard,
                seed=child,
                metric=metric,
                spec=spec,
                dimension=dimension,
                chunk_size=chunk_size,
                checkpoints=checkpoints,
                telemetry=ship_telemetry,
            )
            for shard, child in zip(shards, seeds)
        ]
        ledger = None
        replayed = []
        if checkpoint_dir is not None:
            # Everything that shapes shard content belongs in the key: the
            # metric/spec identity (two problems with the same dimension and
            # seed must never replay each other's shards), the grid
            # (n_samples/shard_size), the per-shard stream root, the chunking
            # (changes nothing numerically, but keeps keys honest about the
            # exact task objects) and the checkpoint grid.
            ledger = open_ledger(
                checkpoint_dir,
                "mc",
                {
                    "n_samples": int(n_samples),
                    "shard_size": int(shard_size),
                    "chunk_size": int(chunk_size),
                    "trace_points": int(trace_points),
                    "dimension": int(dimension),
                    "metric": metric_fingerprint(metric, spec),
                    "seed": seed_key(root),
                },
                resume=resume,
            )
            replayed, tasks = ledger.split(tasks)
        try:
            results = pool.map(
                run_mc_shard,
                tasks,
                on_result=ledger.record if ledger is not None else None,
            )
            # Fold only the freshly executed shards: replayed ones were paid
            # for by the killed run and must not count again.
            fold_external_counts(metric, pool, results)
            if ledger is not None:
                _telemetry.fold_replayed_records(ledger.replayed_telemetry())
            merged = sorted(replayed + results, key=lambda r: r.index)
            failures, trace_n, trace_est, trace_rel = merge_mc_shards(
                merged, n_samples
            )
        finally:
            if ledger is not None:
                ledger.close()
        sims_executed = int(sum(r.n_sims for r in results))
        stage_span.add("sims", sims_executed)
        stage_span.add("failures", int(failures))
    estimate = failures / n_samples
    extras = {
        "n_failures": failures,
        "n_shards": len(shards),
        "n_workers": pool.n_workers,
        "backend": pool.backend,
        "worker_hosts": distinct_hosts(results),
    }
    if ledger is not None:
        extras["resume"] = dict(
            ledger.summary(),
            shards_total=len(shards),
            shards_executed=len(results),
            sims_replayed=int(sum(r.n_sims for r in replayed)),
            sims_executed=sims_executed,
        )
    return EstimationResult(
        method="MC",
        failure_probability=estimate,
        relative_error=montecarlo_relative_error(failures, n_samples),
        n_first_stage=0,
        n_second_stage=n_samples,
        trace=ConvergenceTrace(
            n_samples=trace_n, estimate=trace_est, relative_error=trace_rel
        ),
        extras=extras,
    )
