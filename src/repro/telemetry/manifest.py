"""Run manifest: everything needed to interpret (and re-run) a trace.

A trace without its context is noise: the manifest records the problem,
the seed, the worker grid and the package/python versions, so a trace
artifact pulled out of CI three months later still says what produced it.  Wall-clock timestamps are
included deliberately — the manifest, like all telemetry, sits outside
the determinism contract (compare results, never manifests).
"""

from __future__ import annotations

import platform
import sys
import time
from typing import Optional, Sequence


def build_manifest(
    command: Optional[str] = None,
    problem: Optional[str] = None,
    method: Optional[object] = None,
    seed: Optional[int] = None,
    n_workers: Optional[int] = None,
    backend: Optional[str] = None,
    argv: Optional[Sequence[str]] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble the JSON-friendly run manifest.

    Parameters
    ----------
    command / problem / method / seed:
        What ran: CLI subcommand, problem key, method label(s), seed.
    n_workers / backend:
        How many shards ran at once, and on which backend (``None``
        workers: one at a time, inline).  Results never depend on them.
    argv:
        The invocation's argument vector, verbatim.
    extra:
        Free-form additions merged in last.
    """
    import numpy

    import repro

    manifest = {
        "command": command,
        "problem": problem,
        "method": method,
        "seed": seed,
        "workers": {"n_workers": n_workers, "backend": backend},
        "argv": list(argv) if argv is not None else None,
        "versions": {
            "repro": repro.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
        "platform": platform.platform(),
        "timestamp": time.time(),
        "timestamp_iso": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
        ),
    }
    if extra:
        manifest.update(extra)
    return manifest
