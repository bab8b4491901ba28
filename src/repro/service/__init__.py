"""Async yield-estimation service with a persistent proposal cache.

The paper's two-stage flow has an economic asymmetry: the first stage
(starting-point search + Gibbs chains + ``g_nor`` fit) costs hundreds of
transistor-level simulations, the parametric second stage costs almost
nothing per extra sample.  This package turns that asymmetry into a
serving layer:

* :mod:`repro.service.jobs` — the job record and request schema;
* :mod:`repro.service.keys` — canonical content keys: which request
  fields pin a job's sampled numbers (and which — the second-stage
  budget — are refinable);
* :mod:`repro.service.cache` — the disk-backed artifact cache (JSON
  index, one JSON + ``.npz`` pair per entry) holding the fitted
  proposal, the verified starting point and the final
  :class:`~repro.mc.results.EstimationResult`'s scalars and trace;
* :mod:`repro.service.runner` — one job's execution: cold runs build
  and persist the artifact, warm runs re-use it with **zero**
  first-stage metric evaluations, and every sampled stage checkpoints
  its shards to the cache's ledgers, so a larger budget replays the
  shards already paid for and runs only the new ones, bit-identical to
  a fresh run at the same total budget;
* :mod:`repro.service.scheduler` — :class:`YieldService`: a bounded
  job queue on top of one persistent
  :class:`~repro.parallel.ParallelExecutor` pool, with submit / status /
  result / cancel and per-job timeouts;
* :mod:`repro.service.server` / :mod:`repro.service.client` — a
  stdlib-only local HTTP front end (``repro serve``) and its client
  (``repro submit`` / ``repro jobs``).

Every job writes a telemetry manifest (job id, cache hit/miss, sims
run, first-stage sims and seconds saved), so the serving layer is
observable end to end.  See ``docs/SERVICE.md`` for the lifecycle and
the determinism caveats.
"""

from repro.service.cache import ArtifactCache, CacheEntry, CacheSchemaError
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobCancelled, JobRequest, JobState
from repro.service.keys import job_key, request_identity
from repro.service.runner import execute_job
from repro.service.scheduler import YieldService
from repro.service.server import make_server, serve_forever

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CacheSchemaError",
    "Job",
    "JobCancelled",
    "JobRequest",
    "JobState",
    "ServiceClient",
    "ServiceError",
    "YieldService",
    "execute_job",
    "job_key",
    "make_server",
    "request_identity",
    "serve_forever",
]
