"""The analysis service's HTTP/JSON layer.

A deliberately thin shim over :class:`~repro.service.jobs.JobManager`,
built on the standard library's :class:`http.server.ThreadingHTTPServer`
(no new dependencies):

========  ======================  ==========================================
Method    Path                    Meaning
========  ======================  ==========================================
POST      ``/jobs``               Submit one job (net + stage + params)
POST      ``/jobs/batch``         Submit up to ``MAX_BATCH`` jobs atomically
GET       ``/jobs``               List all job records
GET       ``/jobs/<id>``          One job record (live progress while running)
POST      ``/jobs/<id>/resume``   Re-queue an interrupted job from checkpoint
DELETE    ``/jobs/<id>``          Cancel: immediate when queued, cooperative
                                  (next frontier boundary + final checkpoint)
                                  when running
GET       ``/cache/stats``        Artifact-cache tiers + in-flight builds
GET       ``/healthz``            Per-worker current job, queue depth, job counts
========  ======================  ==========================================

Every handler thread shares the one :class:`JobManager` (and through it
the one :class:`~repro.analysis.cache.ArtifactCache`) — which is exactly
the concurrency regime the cache's internal lock, ``locked_retry``-wrapped
maintenance and the token's locked test-and-set exist for.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .jobs import JobManager
from .schemas import ServiceError, parse_batch, parse_job

logger = logging.getLogger("repro.service")

#: Largest accepted request body (a guard against accidental uploads, not
#: a security boundary; PNML documents of the paper's nets are tiny).
MAX_BODY = 16 * 1024 * 1024


class AnalysisRequestHandler(BaseHTTPRequestHandler):
    """Route one HTTP request into the shared :class:`JobManager`."""

    server_version = "repro-analysis/1"
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    # -- plumbing --------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, error: ServiceError) -> None:
        self._send_json(error.status, error.payload())

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError(400, "invalid-json", "the request carries no body")
        if length > MAX_BODY:
            raise ServiceError(
                413, "body-too-large", f"request body exceeds {MAX_BODY} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as error:
            raise ServiceError(
                400, "invalid-json", f"cannot parse the request body: {error}"
            ) from error

    @staticmethod
    def _job_route(path: str) -> Tuple[Optional[str], Optional[str]]:
        """``/jobs/<id>[/<action>]`` → ``(job_id, action)``."""
        parts = [part for part in path.split("/") if part]
        if len(parts) >= 2 and parts[0] == "jobs":
            job_id = parts[1]
            action = parts[2] if len(parts) == 3 else None
            if len(parts) <= 3:
                return job_id, action
        return None, None

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            self._route(method, path)
        except ServiceError as error:
            self._send_error_payload(error)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:  # noqa: BLE001 - a handler must answer
            logger.exception("unhandled error serving %s %s", method, path)
            self._send_json(
                500,
                {"error": {"code": "internal", "message": str(error)}},
            )

    # -- routing ---------------------------------------------------------

    def _route(self, method: str, path: str) -> None:
        manager = self.manager
        if method == "GET":
            if path == "/healthz":
                self._send_json(200, manager.health())
                return
            if path == "/cache/stats":
                self._send_json(200, manager.cache_stats())
                return
            if path == "/jobs":
                self._send_json(
                    200, {"jobs": [manager.describe(job) for job in manager.jobs()]}
                )
                return
            job_id, action = self._job_route(path)
            if job_id is not None and action is None:
                self._send_json(200, manager.describe(manager.get(job_id)))
                return
        elif method == "POST":
            if path == "/jobs":
                job = manager.submit(parse_job(self._read_json()))
                self._send_json(202, manager.describe(job))
                return
            if path == "/jobs/batch":
                jobs = manager.submit_batch(parse_batch(self._read_json()))
                self._send_json(
                    202, {"jobs": [manager.describe(job) for job in jobs]}
                )
                return
            job_id, action = self._job_route(path)
            if job_id is not None and action == "resume":
                self._send_json(202, manager.describe(manager.resume(job_id)))
                return
        elif method == "DELETE":
            job_id, action = self._job_route(path)
            if job_id is not None and action is None:
                self._send_json(200, manager.describe(manager.cancel(job_id)))
                return
        raise ServiceError(404, "unknown-route", f"no route {method} {path}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


class AnalysisServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` owning one :class:`JobManager`.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`server_address`) — what the tests and the CI smoke step use.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], manager: JobManager):
        super().__init__(address, AnalysisRequestHandler)
        self.manager = manager

    def close(self) -> None:
        """Stop accepting, drain the pool, close the shared cache."""
        self.shutdown()
        self.server_close()
        self.manager.shutdown()


def make_server(
    host: str = "127.0.0.1", port: int = 0, *, manager: Optional[JobManager] = None, **manager_kwargs
) -> AnalysisServer:
    """Build a ready-to-serve :class:`AnalysisServer` (not yet serving)."""
    if manager is None:
        manager = JobManager(**manager_kwargs)
    return AnalysisServer((host, port), manager)


def serve(host: str = "127.0.0.1", port: int = 8752, **manager_kwargs) -> None:
    """Run the analysis service until interrupted (the CLI entry point)."""
    server = make_server(host, port, **manager_kwargs)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro analysis service listening on http://{bound_host}:{bound_port}",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("shutting down", flush=True)
    finally:
        server.close()


__all__ = [
    "AnalysisRequestHandler",
    "AnalysisServer",
    "MAX_BODY",
    "make_server",
    "serve",
]
