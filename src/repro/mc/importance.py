"""Generic importance-sampling second stage (Eqs. 7 and 33).

Given a proposal distribution ``g`` (anything exposing ``sample`` and
``logpdf``), draws N points, evaluates the metric, and forms the
self-normalising-free estimator

    P_f ~= (1/N) sum_n I(x_n) f(x_n) / g(x_n)

together with its 99%-CI relative error and running convergence trace.
Every two-stage method in this library (MIS, MNIS, G-C, G-S) funnels its
second stage through this one function, so the comparison between them is
an apples-to-apples comparison of their *proposals* — which is the paper's
central claim (Gibbs sampling learns a better ``g_nor``).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mc.indicator import FailureSpec
from repro.mc.results import ConvergenceTrace, EstimationResult
from repro.parallel.executor import ParallelExecutor, resolve_executor
from repro.parallel.ledger import (
    metric_fingerprint,
    open_ledger,
    proposal_fingerprint,
    seed_key,
)
from repro.parallel.sharding import plan_shards
from repro.parallel.workers import ISShardTask, fold_external_counts, run_is_shard
from repro.stats.confidence import relative_error
from repro.stats.mvnormal import MultivariateNormal
from repro.telemetry import context as _telemetry
from repro.utils.rng import SeedLike, as_seed_sequence, spawn_seed_sequences


def importance_weights(
    x: np.ndarray,
    fail: np.ndarray,
    proposal,
    nominal: MultivariateNormal,
) -> np.ndarray:
    """Per-sample contributions ``I(x) f(x) / g(x)`` (zero for passing points).

    Computed in log space; passing samples never touch the proposal density,
    so a proposal that assigns vanishing density to *passing* regions is
    harmless (as it should be).
    """
    weights = np.zeros(x.shape[0])
    if np.any(fail):
        xf = x[fail]
        log_w = nominal.logpdf(xf) - proposal.logpdf(xf)
        weights[fail] = np.exp(log_w)
    return weights


def _sharded_second_stage(
    metric: Callable,
    spec: FailureSpec,
    proposal,
    nominal,
    n_samples: int,
    seed: SeedLike,
    executor: ParallelExecutor,
    shard_size: int,
    store_samples: bool,
    dimension: int,
    checkpoint_dir=None,
    resume: bool = True,
):
    """Fan the second stage out in shards; merge weights in sample order.

    The shard grid depends on ``n_samples`` and ``shard_size`` only and
    every shard owns the child stream at its spawn index, so the merged
    weight vector, and everything derived from it, is bit-identical for
    any worker count and backend.

    Because spawn children are prefix-stable, a checkpoint ledger's run
    key deliberately omits ``n_samples``: a later run with a larger
    budget extends the same ledger, replaying every full shard it already
    paid for.
    """
    shards = plan_shards(n_samples, shard_size)
    root = as_seed_sequence(seed)
    seeds = spawn_seed_sequences(root, len(shards))
    ledger = None
    replayed = []
    ship_telemetry = _telemetry.ship_to_workers(executor)
    tasks = [
        ISShardTask(
            shard=shard,
            seed=child,
            metric=metric,
            spec=spec,
            proposal=proposal,
            nominal=nominal,
            store_samples=store_samples,
            telemetry=ship_telemetry,
        )
        for shard, child in zip(shards, seeds)
    ]
    if checkpoint_dir is not None:
        ledger = open_ledger(
            checkpoint_dir,
            "is",
            {
                "shard_size": int(shard_size),
                "dimension": int(dimension),
                "store_samples": bool(store_samples),
                "metric": metric_fingerprint(metric, spec),
                "proposal": proposal_fingerprint(proposal),
                "seed": seed_key(root),
            },
            resume=resume,
        )
        replayed, tasks = ledger.split(tasks)
    try:
        results = executor.map(
            run_is_shard,
            tasks,
            on_result=ledger.record if ledger is not None else None,
        )
        fold_external_counts(metric, executor, results)
        if ledger is not None:
            _telemetry.fold_replayed_records(ledger.replayed_telemetry())
    finally:
        if ledger is not None:
            ledger.close()
    sims_executed = int(sum(r.n_sims for r in results))
    resume_record = (
        None
        if ledger is None
        else dict(
            ledger.summary(),
            shards_total=len(shards),
            shards_executed=len(results),
            sims_replayed=int(sum(r.n_sims for r in replayed)),
            sims_executed=sims_executed,
        )
    )
    results = replayed + results
    results.sort(key=lambda r: r.index)
    weights = np.concatenate([r.weights for r in results])
    fail = (
        np.concatenate([r.failed for r in results]) if store_samples else None
    )
    x = np.concatenate([r.samples for r in results]) if store_samples else None
    n_failures = sum(r.n_failures for r in results)
    return weights, x, fail, n_failures, sims_executed, resume_record


def importance_sampling_estimate(
    metric: Callable,
    spec: FailureSpec,
    proposal,
    n_samples: int,
    method: str = "IS",
    nominal: Optional[MultivariateNormal] = None,
    rng: SeedLike = None,
    n_first_stage: int = 0,
    store_samples: bool = False,
    trace_points: int = 200,
    extras: Optional[dict] = None,
    n_workers: Optional[int] = None,
    backend: str = "process",
    shard_size: int = 8192,
    executor: Optional[ParallelExecutor] = None,
    checkpoint_dir=None,
    resume: bool = True,
) -> EstimationResult:
    """Run the second stage: sample ``proposal``, weight, estimate.

    Parameters
    ----------
    metric:
        Black-box simulation, ``(n, M) -> (n,)``.
    proposal:
        Distribution with ``sample(n, rng)`` and ``logpdf(x)``.  Each
        shard calls ``sample`` with its own child generator, so a
        proposal must draw only from the ``rng`` it is passed: hidden
        sampling state would make the draws depend on the shard schedule.
    nominal:
        The process-variation law f(x); defaults to N(0, I_M).
    n_first_stage:
        Simulations already spent building ``proposal``; copied into the
        result for total-cost accounting.
    store_samples:
        Keep the drawn samples and their pass/fail labels in
        ``result.extras`` (used by the scatter-plot reproductions of
        Figs. 8-11 and 13).
    n_workers:
        How many shards run at once on ``backend``; ``None`` (default)
        runs them inline.  The second stage is always the same grid of
        ``shard_size``-sample shards with per-shard child streams, so the
        estimate is a function of the seed and the shard grid only,
        identical for every worker count and backend.
    shard_size:
        Samples per shard.  The shard grid selects which stream draws
        which sample, so it is part of the run's identity.
    executor:
        Prebuilt :class:`~repro.parallel.ParallelExecutor`; overrides
        ``n_workers``/``backend``.
    checkpoint_dir:
        Persist completed weight shards to an append-only ledger
        (``repro-ledger-v1``) so a killed second stage resumes
        bit-identically, re-running only missing shards.  The ledger key
        omits ``n_samples`` — spawn children are prefix-stable — so a
        later, larger-budget run extends the same ledger.
    resume:
        With ``checkpoint_dir``: replay an existing matching ledger
        (default); ``False`` truncates it first.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    dimension = getattr(proposal, "dimension", None) or getattr(metric, "dimension")
    if nominal is None:
        nominal = MultivariateNormal.standard(dimension)

    pool = resolve_executor(executor, n_workers, backend)
    with _telemetry.span(
        "second_stage", method=method, samples=int(n_samples)
    ) as stage_span:
        weights, x, fail, n_failures, sims_executed, resume_record = (
            _sharded_second_stage(
                metric, spec, proposal, nominal, n_samples, rng, pool,
                int(shard_size), store_samples, int(dimension),
                checkpoint_dir=checkpoint_dir, resume=resume,
            )
        )
        # Replayed ledger shards were paid for by an earlier run.
        stage_span.add("sims", sims_executed)
        stage_span.add("failures", int(n_failures))

    result_extras = dict(extras or {})
    if resume_record is not None:
        result_extras["resume"] = resume_record
    result_extras["proposal"] = proposal
    result_extras["n_failures"] = int(n_failures)
    if store_samples:
        result_extras["samples"] = x
        result_extras["failed"] = fail

    return EstimationResult(
        method=method,
        failure_probability=float(weights.mean()),
        relative_error=relative_error(weights),
        n_first_stage=int(n_first_stage),
        n_second_stage=int(n_samples),
        trace=ConvergenceTrace.from_weights(weights, trace_points),
        extras=result_extras,
    )
