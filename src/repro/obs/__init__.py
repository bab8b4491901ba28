"""Live exporters over the active recorder: Prometheus, HTTP, ``repro top``.

The live state itself — stage progress and ETA, throughput, streaming
convergence, chain diagnostics, fleet health — is the active
:class:`~repro.telemetry.Recorder`'s live view
(:mod:`repro.telemetry.live`).  This package only serves it: an HTTP
exporter (:mod:`repro.obs.http`) answers ``GET /metrics`` with Prometheus
text exposition (:mod:`repro.obs.prometheus`) and ``GET /status`` with
the recorder's :meth:`~repro.telemetry.Recorder.status` document while
the run is still going, and ``repro top`` (:mod:`repro.obs.top`) renders
that endpoint as a refreshing terminal dashboard.
"""

from repro.obs.prometheus import parse_exposition, render_exposition

__all__ = [
    "render_exposition",
    "parse_exposition",
]
