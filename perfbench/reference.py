"""Regenerate ``perfbench/reference.json``: the P_f values the gates check.

The correctness gates compare each workload's estimate with an
independent reference, computed here by a *different* estimator than the
one under test so that a bug in the gated path cannot also shift its
reference:

* ``iread`` — a golden brute-force Monte Carlo (exact up to its binomial
  CI, whatever the shape of the non-convex failure region);
* ``rnm`` — minimum-norm importance sampling (MNIS) with a large second
  stage.  A golden MC is out of reach at P_f ~ 7e-6 with ~1 ms per row,
  and MNIS shares no first-stage code with the Gibbs flow it checks.

Run from the repository root (takes a few minutes on two cores)::

    python3 perfbench/reference.py

The seeds below are used for nothing else, so the references stay
independent of every benchmark seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import (  # noqa: E402  (path set up above)
    ParallelExecutor,
    brute_force_monte_carlo,
    minimum_norm_importance_sampling,
    read_current_problem,
    read_noise_margin_problem,
)
from repro.parallel import default_workers  # noqa: E402

REFERENCE_PATH = HERE / "reference.json"

IREAD_SEED = 900_001
RNM_SEED = 900_002
#: Golden MC rows for iread, and MNIS second-stage samples for rnm.
IREAD_SAMPLES = 48 * 2**20
RNM_SAMPLES = 200_000


def iread_reference(executor) -> dict:
    problem = read_current_problem()
    result = brute_force_monte_carlo(
        problem.metric, problem.spec, n_samples=IREAD_SAMPLES, rng=IREAD_SEED,
        executor=executor, shard_size=65536,
    )
    return {
        "p_ref": float(result.failure_probability),
        "rel_err_99": float(result.relative_error),
        "method": "MC",
        "n_samples": IREAD_SAMPLES,
        "n_failures": int(result.extras["n_failures"]),
        "seed": IREAD_SEED,
    }


def rnm_reference(executor) -> dict:
    problem = read_noise_margin_problem()
    result = minimum_norm_importance_sampling(
        problem.metric, problem.spec, n_second_stage=RNM_SAMPLES,
        rng=RNM_SEED, executor=executor, shard_size=8192,
    )
    return {
        "p_ref": float(result.failure_probability),
        "rel_err_99": float(result.relative_error),
        "method": "MNIS",
        "n_second_stage": RNM_SAMPLES,
        "n_first_stage": int(result.n_first_stage),
        "seed": RNM_SEED,
    }


def main() -> int:
    with ParallelExecutor(n_workers=default_workers()) as executor:
        payload = {
            "iread": iread_reference(executor),
            "rnm": rnm_reference(executor),
        }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
