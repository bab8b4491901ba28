"""Process-parallel execution layer: sharded sampling on all cores.

The paper's workloads above the Gibbs first stage — the 8.7M-sample golden
Monte Carlo of Table II, the importance-sampling second stages, and the
multi-method/multi-trial experiment panels — are embarrassingly parallel.
This package makes them actually parallel while keeping them exactly
reproducible:

* :class:`ParallelExecutor` — one fan-out primitive with ``serial`` /
  ``thread`` / ``process`` / ``remote`` backends (the last dispatches
  shards to ``repro worker`` processes over a socket, see
  :mod:`repro.parallel.remote`);
* :class:`ShardLedger` — an append-only, fsync-per-record JSONL
  checkpoint of completed shard results, so killed runs resume
  bit-identically by re-executing only the missing shards
  (:mod:`repro.parallel.ledger`, ``docs/ELASTIC.md``);
* :func:`plan_shards` / :func:`spawn_seed_sequences` — a worker-count-free
  shard grid where every shard owns the child stream at its spawn index,
  so results depend on the seed and the shard grid, never on the backend
  or the number of workers.  It is the only sampling path: with
  ``n_workers=None`` the grid runs inline (``n_workers=1``), and
  ``n_workers`` only sets how many shards run at once;
* spawn-safe shard workers plus merge helpers that reconstruct what a
  serial pass would have produced (failure counts, checkpoint-aligned
  convergence traces, simulation-count folding into the parent
  :class:`~repro.mc.counter.CountedMetric`).

See ``docs/ALGORITHMS.md`` ("Parallel execution") for the determinism
contract and the wiring into ``brute_force_monte_carlo``,
``importance_sampling_estimate`` and the experiment panels.
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelExecutor,
    default_workers,
    resolve_executor,
)
from repro.parallel.ledger import (
    LEDGER_SCHEMA,
    LedgerMismatch,
    ShardLedger,
    host_stamp,
    open_ledger,
)
from repro.parallel.remote import (
    PROTOCOL_VERSION,
    RemoteCoordinator,
    RemoteTaskError,
    run_worker,
)
from repro.parallel.sharding import (
    Shard,
    checkpoint_grid,
    merge_blockade_shards,
    merge_chain_shards,
    merge_mc_shards,
    merge_weight_shards,
    plan_shards,
)
from repro.parallel.transport import (
    SHM_AVAILABLE,
    ShmArrayHandle,
    discard_array,
    export_array,
    import_array,
    should_use_shm,
)
from repro.parallel.workers import (
    BlockadeShardResult,
    BlockadeShardTask,
    GibbsShardResult,
    GibbsShardTask,
    ISShardResult,
    ISShardTask,
    MCShardResult,
    MCShardTask,
    distinct_hosts,
    fold_external_counts,
    run_blockade_shard,
    run_gibbs_shard,
    run_is_shard,
    run_mc_shard,
)
from repro.utils.rng import spawn_seed_sequences

__all__ = [
    "BACKENDS",
    "ParallelExecutor",
    "default_workers",
    "resolve_executor",
    "Shard",
    "plan_shards",
    "checkpoint_grid",
    "merge_mc_shards",
    "merge_weight_shards",
    "merge_chain_shards",
    "merge_blockade_shards",
    "MCShardTask",
    "MCShardResult",
    "ISShardTask",
    "ISShardResult",
    "GibbsShardTask",
    "GibbsShardResult",
    "BlockadeShardTask",
    "BlockadeShardResult",
    "run_mc_shard",
    "run_is_shard",
    "run_gibbs_shard",
    "run_blockade_shard",
    "fold_external_counts",
    "distinct_hosts",
    "spawn_seed_sequences",
    "SHM_AVAILABLE",
    "ShmArrayHandle",
    "export_array",
    "import_array",
    "discard_array",
    "should_use_shm",
    "LEDGER_SCHEMA",
    "LedgerMismatch",
    "ShardLedger",
    "open_ledger",
    "host_stamp",
    "PROTOCOL_VERSION",
    "RemoteCoordinator",
    "RemoteTaskError",
    "run_worker",
]
