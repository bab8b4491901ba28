"""Statistical blockade (Singhee & Rutenbar, DATE 2007), reference [9].

An extension baseline: instead of distorting the sampling distribution,
blockade *filters* plain Monte-Carlo samples through a cheap classifier and
only simulates the candidates likely to land in the tail, "blocking" the
bulk.  Our classifier is a linear response surface of the signed margin
fitted on a small training set, with a conservative blockade threshold
(a high passing percentile) so true failures are rarely blocked.

The estimate stays the plain MC proportion over *all* generated samples —
the classifier only decides which ones are worth simulating — so the cost
is ``n_train + (unblocked fraction) * n_samples`` simulations.  Note the
method estimates tail quantiles well but inherits MC's slow convergence in
P_f; it is included for completeness of the baseline landscape, not as a
competitor in Tables I/II.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.mc.counter import CountedMetric
from repro.mc.indicator import FailureSpec
from repro.mc.results import EstimationResult
from repro.modeling.surrogate import LinearSurrogate
from repro.parallel.executor import resolve_executor
from repro.parallel.sharding import merge_blockade_shards, plan_shards
from repro.parallel.workers import (
    BlockadeShardTask,
    fold_external_counts,
    run_blockade_shard,
)
from repro.stats.confidence import montecarlo_relative_error
from repro.telemetry import context as _telemetry
from repro.utils.rng import SeedLike, ensure_rng, spawn_seed_sequences


def statistical_blockade(
    metric: Callable,
    spec: FailureSpec,
    n_samples: int,
    dimension: Optional[int] = None,
    n_train: int = 1000,
    blockade_percentile: float = 3.0,
    rng: SeedLike = None,
    chunk_size: int = 65536,
    n_workers: Optional[int] = None,
    backend: str = "process",
    shard_size: int = 262144,
) -> EstimationResult:
    """Estimate P_f with classifier-filtered Monte Carlo.

    Parameters
    ----------
    n_samples:
        Total Monte-Carlo samples *generated* (the estimate's denominator).
    n_train:
        Simulations spent training the margin classifier.
    blockade_percentile:
        Percentile of the training margins used as the conservative
        blockade threshold: candidates whose *predicted* margin falls below
        it are simulated, the rest are blocked.  3% is Singhee's
        recommended safety-margin regime for ~4-sigma tails.
    n_workers:
        How many screening shards run at once on ``backend``; ``None``
        (default) runs them inline.  Screening is always the grid of
        ``shard_size``-candidate slices with spawn-indexed child streams —
        the same worker layer as the Monte Carlo — so the tally is a
        function of the seed and the shard grid only, identical for every
        worker count and backend.  (Classifier training stays in the
        caller's stream.)
    shard_size:
        Generated candidates per screening shard.  Larger than the MC/IS
        defaults because blocked candidates cost almost nothing — only the
        unblocked tail is simulated.
    """
    if not 0 < blockade_percentile < 100:
        raise ValueError(
            f"blockade_percentile must be in (0, 100), got {blockade_percentile}"
        )
    rng = ensure_rng(rng)
    counted = metric if isinstance(metric, CountedMetric) else CountedMetric(
        metric, dimension
    )
    dimension = counted.dimension

    with _telemetry.span("blockade.train", n_train=int(n_train)) as train_span:
        x_train = rng.standard_normal((n_train, dimension))
        margins = spec.margin(counted(x_train))
        classifier = LinearSurrogate.fit(x_train, margins)
        threshold = float(np.percentile(margins, blockade_percentile))
        train_failures = int(np.sum(margins < 0))
        train_span.add("sims", int(n_train))

    pool = resolve_executor(None, n_workers, backend)
    with _telemetry.span(
        "blockade.screen", generated=int(n_samples)
    ) as screen_span:
        shards = plan_shards(n_samples, int(shard_size))
        seeds = spawn_seed_sequences(rng, len(shards))
        ship_telemetry = _telemetry.ship_to_workers(pool)
        tasks = [
            BlockadeShardTask(
                shard=shard,
                seed=child,
                metric=counted,
                spec=spec,
                classifier=classifier,
                threshold=threshold,
                dimension=dimension,
                chunk_size=int(chunk_size),
                telemetry=ship_telemetry,
            )
            for shard, child in zip(shards, seeds)
        ]
        results = pool.map(run_blockade_shard, tasks)
        fold_external_counts(counted, pool, results)
        failures, simulated = merge_blockade_shards(results, n_samples)
        screen_span.add("sims", int(simulated))
        screen_span.add("failures", int(failures))

    failures += train_failures  # training samples are honest MC draws too
    total = n_samples + n_train
    estimate = failures / total
    return EstimationResult(
        method="Blockade",
        failure_probability=estimate,
        relative_error=montecarlo_relative_error(failures, total),
        n_first_stage=n_train,
        n_second_stage=simulated,
        trace=None,
        extras={
            "n_generated": total,
            "n_blocked": n_samples - simulated,
            "blockade_threshold": threshold,
        },
    )
