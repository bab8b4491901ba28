"""Cache keys: which request fields pin a job's sampled numbers.

The cache key must satisfy two opposite requirements.  It must cover
every knob that changes what the first stage *would have produced* —
problem, spec, corner, variation model, seed, estimator configuration —
so two logically different jobs never share an entry.  And it must
exclude the knobs a cache hit is allowed to vary — the second-stage
budget (refinable by extending the shard grid) and the shard size
(a grid mismatch re-runs only the cheap second stage) — so a repeat
query with a bigger budget still *hits*.

:func:`request_identity` is the single definition of that field set;
:func:`job_key` hashes it through the canonical
:func:`repro.mc.results.content_key`, so reordered or differently
spelled but equal-valued requests (``2`` vs ``2.0``, tuple vs list)
map to the same entry while any genuine value difference never does.
"""

from __future__ import annotations

from repro.mc.results import content_key
from repro.service.jobs import JobRequest

#: Gibbs method label -> coordinate system of the first-stage sampler.
GIBBS_METHODS = {"G-C": "cartesian", "G-S": "spherical"}


def request_identity(request: JobRequest) -> dict:
    """The canonical identity fields of a request, for hashing and audit.

    Everything that selects the problem instance, the variation model or
    the first-stage sampling path is included; ``n_second_stage``,
    ``shard_size``, ``timeout`` and ``use_cache`` are deliberately *not*
    — they are serving knobs a hit may renegotiate (see
    :mod:`repro.service.runner`).
    """
    return {
        "problem": request.problem,
        "method": request.method,
        "corner": request.corner.upper(),
        "sigma_global": request.sigma_global,
        "threshold": request.threshold,
        "seed": request.seed,
        "n_gibbs": request.n_gibbs,
        "n_chains": request.n_chains,
        "chain_jitter": request.chain_jitter,
        "doe_budget": request.doe_budget,
        "n_exploration": request.n_exploration,
        "proposal_fit": request.proposal_fit,
        "surrogate_order": request.surrogate_order,
        "epsilon": request.epsilon,
        "zeta": request.zeta,
        "bisect_iters": request.bisect_iters,
        # ladder > 1 changes the sampled trajectory outright, so the
        # width is an identity, not a serving, knob.
        "ladder_width": request.ladder_width,
    }


def job_key(request: JobRequest) -> str:
    """Content hash identifying a request's cache entry."""
    return content_key(**request_identity(request))
