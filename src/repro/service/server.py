"""Local HTTP front end for the yield service (stdlib only).

A deliberately small JSON API over :class:`~http.server.ThreadingHTTPServer`
— no web-framework dependency, which keeps the serving layer importable
everywhere the library is:

==========  =============================  =======================================
method      path                           body / query
==========  =============================  =======================================
``GET``     ``/health``                    service stats + cache counters
``GET``     ``/metrics``                   Prometheus text exposition (live)
``GET``     ``/status``                    observability snapshot as JSON
``GET``     ``/jobs``                      all job statuses (+ live progress)
``POST``    ``/jobs``                      one request object, or ``{"jobs": [...]}``
``GET``     ``/jobs/<id>``                 one job's status
``GET``     ``/jobs/<id>/result``          ``?wait=<seconds>`` blocks for completion
``POST``    ``/jobs/<id>/cancel``          cooperative cancel
==========  =============================  =======================================

Error contract: client mistakes are ``400`` (malformed request) or
``404`` (unknown id) with ``{"error": ...}``; a job that is not done yet
answers ``409`` from ``/result`` so pollers can distinguish "pending"
from "wrong".  The server is bound to loopback by default — it fronts a
local simulation pool, not the internet.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.http import EXPOSITION_CONTENT_TYPE, obs_status
from repro.obs.prometheus import render_exposition
from repro.service.scheduler import YieldService
from repro.telemetry import logs

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server carrying its :class:`YieldService` for the handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service: YieldService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # ----------------------------------------------------------- plumbing
    def log_message(self, fmt, *args):  # route through the repro logger
        logs.info(f"http {self.address_string()} {fmt % args}")

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _read_body(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[list, dict]:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        return parts, query

    # ------------------------------------------------------------- verbs
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        service = self.server.service
        parts, query = self._route()
        try:
            if parts == ["health"]:
                self._send(200, {"ok": True, **service.stats()})
            elif parts == ["metrics"]:
                self._send_metrics(service)
            elif parts == ["status"]:
                status = obs_status(service.recorder)
                status["service"] = service.stats()
                self._send(200, status)
            elif parts == ["jobs"]:
                self._send(200, {"jobs": service.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send(200, service.status(parts[1]))
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "result"
            ):
                self._get_result(service, parts[1], query)
            else:
                self._error(404, f"no such route: GET {self.path}")
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else str(exc))

    def _send_metrics(self, service) -> None:
        stats = service.stats()
        extra = {
            "repro_service_jobs_total": stats.get("total_jobs", 0),
            "repro_service_uptime_seconds": stats.get("uptime_seconds", 0.0),
            "repro_service_first_stage_sims_saved": stats.get(
                "first_stage_sims_saved", 0
            ),
        }
        text = render_exposition(service.recorder, extra_gauges=extra)
        body = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", EXPOSITION_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _get_result(self, service, job_id: str, query: dict) -> None:
        wait = float(query.get("wait", 0) or 0)
        job = service.wait(job_id, timeout=wait) if wait else service.get(job_id)
        status = service.status(job_id)
        if job.state != "done":
            code = 409 if job.state in ("queued", "running") else 410
            self._send(code, status)
            return
        status["manifest"] = job.manifest
        self._send(200, status)

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        parts, _ = self._route()
        try:
            if parts == ["jobs"]:
                payload = self._read_body()
                if payload is None:
                    return
                if "jobs" in payload:
                    jobs = service.submit_batch(payload["jobs"])
                    self._send(202, {"ids": [job.id for job in jobs]})
                else:
                    job = service.submit(payload)
                    self._send(202, {"id": job.id})
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "cancel"
            ):
                changed = service.cancel(parts[1])
                self._send(200, {"id": parts[1], "cancelled": changed})
            else:
                self._error(404, f"no such route: POST {self.path}")
        except KeyError as exc:
            self._error(404, str(exc.args[0]) if exc.args else str(exc))
        except (TypeError, ValueError) as exc:
            self._error(400, str(exc))


def make_server(
    service: YieldService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
) -> ServiceHTTPServer:
    """Bind the API without starting it (``port=0`` picks a free port)."""
    return ServiceHTTPServer((host, port), service)


def serve_forever(
    service: YieldService,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run the front end until interrupted; always tears the pools down.

    The ``finally`` is the serving layer's half of the interrupted-exit
    contract (see ``ParallelExecutor.close``): a SIGINT during a long job
    still cancels queued shards and joins the worker processes before the
    process exits.
    """
    server = make_server(service, host, port)
    bound_port = server.server_address[1]
    logs.info(f"serving on http://{host}:{bound_port}")
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        logs.info("interrupt received; shutting down")
    finally:
        server.server_close()
        service.close()
