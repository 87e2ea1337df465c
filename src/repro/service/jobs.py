"""The analysis service's job layer: queue, worker pool, run control.

:class:`JobManager` owns everything between a validated
:class:`~repro.service.schemas.JobRequest` and a JSON-renderable job
record:

* **Canonicalization** — every submitted net is keyed by
  :func:`~repro.petri.fingerprint.net_fingerprint`.  The first
  presentation seen for a fingerprint is elected canonical; content-equal
  resubmissions — including nets that declare their places/transitions in
  a different order and therefore carry their own presentation digest —
  are redirected onto the elected presentation's cache entries, so they
  are answered from the :class:`~repro.analysis.cache.ArtifactCache`
  without re-running any builder.
* **Execution** — each job runs one :class:`~repro.analysis.AnalysisSession`
  stage over the shared cache, under a per-job
  :class:`~repro.engine.runtime.RunControl`: wall-clock ``deadline``,
  cooperative :class:`~repro.engine.runtime.CancellationToken` (wired to
  ``DELETE /jobs/<id>``), live :class:`~repro.engine.runtime.Progress`
  snapshots, and periodic durable checkpoints anchored at
  ``<state_dir>/<job_id>`` — an evicted or killed job resumes through the
  engine's existing :func:`~repro.engine.runtime.resume` machinery.
* **Single-flight** — concurrent submissions of the same cache key build
  once: followers wait for the leader and are then served from the
  memory tier.
* **Pool** — ``workers`` plain threads drain the queue.  A job that
  raises is recorded as that job's ``error`` and its thread moves on to
  the next job; ``/healthz`` reports each thread's current job.
"""

from __future__ import annotations

import logging
import os
import queue
import shutil
import tempfile
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional

from ..analysis import AnalysisSession, ArtifactCache
from ..analysis.session import (
    STAGE_COVERABILITY,
    STAGE_DECISION,
    STAGE_GSPN,
    STAGE_PERFORMANCE,
    STAGE_QUERY,
    STAGE_UNTIMED,
)
from ..engine.runtime import Checkpoint, Progress, RunControl, CancellationToken
from ..engine.runtime import resume as resume_checkpoint
from ..exceptions import BuildInterruptedError, ReproError
from ..petri.fingerprint import constraints_digest, net_cache_key, net_fingerprint
from .schemas import JobRequest, ServiceError

logger = logging.getLogger("repro.service")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"
INTERRUPTED = "interrupted"

#: States a job never leaves (except through :meth:`JobManager.resume`).
TERMINAL_STATES = frozenset({DONE, ERROR, CANCELLED, INTERRUPTED})

#: Stages whose builders accept a ``RunControl`` (deadline, cancellation,
#: checkpoints).  ``decision``/``performance``/``tables`` run uninterruptible
#: (their timed-graph core predates the control protocol) — DELETE still
#: cancels them while queued.
CONTROL_STAGES = frozenset({"untimed", "coverability", "gspn", "query"})

#: Session cache-stage label per API stage name.
STAGE_KEYS: Dict[str, str] = {
    "tables": "tables",
    "untimed": STAGE_UNTIMED,
    "coverability": STAGE_COVERABILITY,
    "gspn": STAGE_GSPN,
    "decision": STAGE_DECISION,
    "performance": STAGE_PERFORMANCE,
    "query": STAGE_QUERY,
}

#: Defaults mirrored from the AnalysisSession stage signatures — the job
#: layer computes cache keys at submission time (for single-flight and
#: canonical dedup), so its parameter canonicalization must match what the
#: session will actually fetch with.
_STAGE_DEFAULTS = {
    "untimed": {"max_states": 100_000},
    "coverability": {"max_nodes": 50_000},
    "gspn": {"max_states": 50_000},
    "decision": {"max_states": 100_000},
    "performance": {"max_states": 100_000},
    "query": {"max_states": 100_000},
}

DEFAULT_WORKERS = 2
DEFAULT_CHECKPOINT_EVERY = 1000
DEFAULT_PROGRESS_EVERY = 250


def stage_cache_params(stage: str, params: Dict[str, object]) -> Dict[str, object]:
    """The cache-key parameter dict the session will use for ``stage``.

    Must stay in lockstep with the corresponding ``AnalysisSession``
    method; the end-to-end suite asserts key equality by checking that a
    direct session run against the same cache directory hits.
    """
    defaults = _STAGE_DEFAULTS.get(stage, {})
    if stage == "tables":
        return {}
    if stage == "untimed":
        return {"max_states": params.get("max_states", defaults["max_states"])}
    if stage == "coverability":
        return {"max_nodes": params.get("max_nodes", defaults["max_nodes"])}
    if stage == "gspn":
        return {
            "max_states": params.get("max_states", defaults["max_states"]),
            "place_capacity": params.get("place_capacity"),
            "rates": {
                name: float(value)
                for name, value in (params.get("rates") or {}).items()
            },
        }
    if stage == "decision":
        return {
            "max_states": params.get("max_states", defaults["max_states"]),
            "constraints": constraints_digest(None),
            "fold_cycles": params.get("fold_cycles", True),
        }
    if stage == "performance":
        return {
            "max_states": params.get("max_states", defaults["max_states"]),
            "constraints": constraints_digest(None),
            "time_unit": params.get("time_unit", "ms"),
        }
    if stage == "query":
        out: Dict[str, object] = {
            "kind": params["kind"],
            "max_states": params.get("max_states", defaults["max_states"]),
        }
        if params["kind"] == "reachable":
            out["target"] = {
                name: int(count) for name, count in params["target"].items()
            }
        elif params["kind"] == "bound":
            out["place"] = params["place"]
            out["k"] = int(params["k"])
        return out
    raise ValueError(f"unknown stage {stage!r}")  # pragma: no cover


def _number(value) -> Optional[float]:
    """Best-effort float of an exact/symbolic expression value."""
    try:
        return float(value)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def describe_artifact(stage: str, artifact, net) -> Dict[str, object]:
    """JSON-renderable summary of a stage's artifact."""
    if stage == "tables":
        return {
            "places": len(artifact.place_names),
            "transitions": len(artifact.transition_names),
            "arcs": sum(
                len(inputs) + len(outputs)
                for inputs, outputs in zip(artifact.inputs, artifact.outputs)
            ),
        }
    if stage == "untimed":
        return {
            "states": artifact.state_count,
            "edges": artifact.edge_count,
            "bound": artifact.bound(),
            "safe": artifact.is_safe(),
            "deadlock_free": artifact.is_deadlock_free(),
            "dead_markings": len(artifact.dead_markings()),
        }
    if stage == "coverability":
        return {
            "nodes": artifact.node_count,
            "edges": len(artifact.edges),
            "bounded": artifact.is_bounded(),
        }
    if stage == "gspn":
        return {
            "tangible_states": len(artifact.tangible_markings),
            "throughput": {
                name: float(value) for name, value in artifact.throughput.items()
            },
            "utilization": {
                name: float(value) for name, value in artifact.utilization.items()
            },
        }
    if stage == "decision":
        return {
            "states": artifact.trg.state_count,
            "anchors": len(artifact.anchors),
            "edges": len(artifact.edges),
            "folded_cycles": len(artifact.folded_cycles),
        }
    if stage == "performance":
        cycle_time = artifact.cycle_time()
        throughput = {}
        utilization = {}
        for name in net.transition_order:
            expr = artifact.throughput(name)
            throughput[name] = {"exact": str(expr.value), "value": _number(expr.value)}
            expr = artifact.utilization(name)
            utilization[name] = {"exact": str(expr.value), "value": _number(expr.value)}
        return {
            "states": artifact.reachability.state_count,
            "folded_cycles": len(artifact.folded_cycles),
            "terminal_classes": artifact.terminal_class_count,
            "cycle_time": {
                "exact": str(cycle_time.value),
                "value": _number(cycle_time.value),
            },
            "throughput": throughput,
            "utilization": utilization,
        }
    if stage == "query":
        summary: Dict[str, object] = {
            "found": artifact.found,
            "states_explored": artifact.states_explored,
            "edges_explored": artifact.edges_explored,
        }
        if artifact.found:
            summary["witness_depth"] = artifact.witness_depth
            summary["witness"] = artifact.witness.to_dict()
            summary["path"] = list(artifact.path)
        return summary
    raise ValueError(f"unknown stage {stage!r}")  # pragma: no cover


class Job:
    """One submitted analysis job (mutated only under the manager's lock)."""

    def __init__(self, request: JobRequest, *, job_id: str):
        self.id = job_id
        self.stage = request.stage
        self.params: Dict[str, object] = dict(request.params)
        self.net = request.net  # replaced by the elected canonical net at submit
        self.presented_key: Optional[str] = None
        self.fingerprint: Optional[str] = None
        self.cache_key: Optional[str] = None
        self.canonicalized = False
        self.deadline: Optional[float] = request.deadline
        self.checkpoint_every: Optional[int] = request.checkpoint_every
        self.progress_every: Optional[int] = request.progress_every
        self.status = QUEUED
        self.token = CancellationToken()
        self.progress: Optional[Dict[str, object]] = None
        self.result: Optional[Dict[str, object]] = None
        self.tier: Optional[str] = None
        self.error: Optional[Dict[str, object]] = None
        self.interrupt_reason: Optional[str] = None
        self.checkpoint_path: Optional[str] = None
        self.resumable = False
        self.resume_from: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def describe(self) -> Dict[str, object]:
        """The job's JSON record (call under the manager's lock)."""
        record: Dict[str, object] = {
            "id": self.id,
            "stage": self.stage,
            "status": self.status,
            "params": dict(self.params),
            "net": {
                "fingerprint": self.fingerprint,
                "cache_key": self.presented_key,
                "served_key": self.cache_key,
                "canonicalized": self.canonicalized,
            },
            "deadline": self.deadline,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress) if self.progress else None,
            "result": self.result,
            "cache": {"tier": self.tier, "key": self.cache_key},
            "error": self.error,
        }
        if self.interrupt_reason is not None or self.resumable:
            record["interrupt"] = {
                "reason": self.interrupt_reason,
                "resumable": self.resumable,
                "checkpoint": self.checkpoint_path,
            }
        else:
            record["interrupt"] = None
        return record


class JobManager:
    """Bounded thread-pool job runner over a shared artifact cache.

    Parameters
    ----------
    cache:
        An explicit :class:`ArtifactCache` to serve from (shared with other
        components); the manager builds its own from ``cache_dir`` when
        omitted.
    cache_dir:
        Disk tier directory for the manager-owned cache.
    workers:
        Worker threads running jobs concurrently.
    default_deadline:
        Wall-clock budget applied to jobs that do not carry their own.
    state_dir:
        Root of the per-job checkpoint directories.  Defaults to
        ``<cache_dir>/jobs`` next to the artifact database, or a
        self-cleaning temporary directory for memory-only caches.
    checkpoint_every:
        Periodic-checkpoint cadence (expanded states) for control-capable
        stages; per-job ``checkpoint_every`` overrides it.
    clock:
        Monotonic time source handed to every job's ``RunControl``
        (injectable for deterministic deadline tests).
    """

    def __init__(
        self,
        *,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        workers: int = DEFAULT_WORKERS,
        default_deadline: Optional[float] = None,
        state_dir: Optional[str] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self._owns_cache = cache is None
        self.cache = cache if cache is not None else ArtifactCache(cache_dir)
        if state_dir is not None:
            self.state_dir = state_dir
            self._owns_state_dir = False
        elif cache_dir is not None:
            self.state_dir = os.path.join(cache_dir, "jobs")
            self._owns_state_dir = False
        else:
            self.state_dir = tempfile.mkdtemp(prefix="repro-service-jobs-")
            self._owns_state_dir = True
        self.default_deadline = default_deadline
        self.checkpoint_every = checkpoint_every
        self.clock = clock

        self._lock = threading.RLock()
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._canonical: Dict[str, object] = {}  # fingerprint -> elected net
        self._inflight: Dict[str, threading.Event] = {}  # cache key -> done event
        self._stop = threading.Event()
        #: The id of the job each pool thread is running, ``None`` when idle.
        self._current: List[Optional[str]] = [None] * workers
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{slot}",
                args=(slot,),
                daemon=True,
            )
            for slot in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / inspection API (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Queue one validated job; returns the (queued) job record."""
        if self._stop.is_set():
            raise ServiceError(503, "shutting-down", "the service is shutting down")
        job = Job(request, job_id=f"j-{uuid.uuid4().hex[:10]}")
        job.presented_key = net_cache_key(request.net)
        job.fingerprint = net_fingerprint(request.net)
        if job.deadline is None:
            job.deadline = self.default_deadline
        with self._lock:
            elected = self._canonical.get(job.fingerprint)
            if elected is None:
                self._canonical[job.fingerprint] = request.net
            else:
                # Same content, possibly a different declaration order: run
                # (and hit) under the elected presentation so reordered
                # resubmissions never rebuild.
                job.net = elected
                job.canonicalized = net_cache_key(elected) != job.presented_key
            job.cache_key = ArtifactCache.key_for(
                job.net, STAGE_KEYS[job.stage], stage_cache_params(job.stage, job.params)
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._queue.put(job.id)
        return job

    def submit_batch(self, requests: List[JobRequest]) -> List[Job]:
        return [self.submit(request) for request in requests]

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(404, "unknown-job", f"no job {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def describe(self, job: Job) -> Dict[str, object]:
        with self._lock:
            return job.describe()

    def cancel(self, job_id: str) -> Job:
        """Request cancellation: immediate for queued jobs, cooperative
        (next frontier boundary, final checkpoint written) for running ones."""
        job = self.get(job_id)
        with self._lock:
            if job.status == QUEUED:
                job.status = CANCELLED
                job.interrupt_reason = "cancelled before start"
                job.finished_at = time.time()
                job.token.cancel("cancelled before start")
                return job
        # Running (or already terminal — then this is a no-op): the builder
        # observes the token at its next item/level boundary.
        job.token.cancel("cancelled by client")
        return job

    def resume(self, job_id: str) -> Job:
        """Re-queue an interrupted/cancelled job from its checkpoint."""
        job = self.get(job_id)
        with self._lock:
            if job.status not in (CANCELLED, INTERRUPTED):
                raise ServiceError(
                    409,
                    "not-resumable",
                    f"job {job_id} is {job.status}, not interrupted/cancelled",
                )
            if not job.resumable or job.checkpoint_path is None:
                raise ServiceError(
                    409,
                    "not-resumable",
                    f"job {job_id} left no resumable checkpoint",
                )
            job.resume_from = job.checkpoint_path
            job.status = QUEUED
            job.token = CancellationToken()
            job.error = None
            job.interrupt_reason = None
            job.resumable = False
            job.finished_at = None
        self._queue.put(job.id)
        return job

    def health(self) -> Dict[str, object]:
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "status": "ok",
                "jobs": by_status,
                "queue_depth": self._queue.qsize(),
                "workers": [
                    {"id": slot, "current_job": job_id}
                    for slot, job_id in enumerate(self._current)
                ],
            }

    def cache_stats(self) -> Dict[str, object]:
        with self._lock:
            inflight = len(self._inflight)
            canonical = len(self._canonical)
        return {
            "cache": self.cache.stats(),
            "inflight_builds": inflight,
            "canonical_nets": canonical,
        }

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the pool: cancel running jobs, join workers, close the cache."""
        self._stop.set()
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.status == RUNNING:
                job.token.cancel("server shutdown")
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if self._owns_cache:
            self.cache.close()
        if self._owns_state_dir:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _worker_loop(self, slot: int) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            job = self._jobs[job_id]
            self._current[slot] = job_id
            try:
                self._execute(job)
            except Exception as error:  # noqa: BLE001 - one failed job must not end the pool thread
                self._record_failure(job, error)
                logger.exception("job %s failed", job_id)
            finally:
                self._current[slot] = None

    def _record_failure(self, job: Job, error: Exception) -> None:
        with self._lock:
            if job.status in TERMINAL_STATES:
                return
            job.status = ERROR
            job.error = {"type": type(error).__name__, "message": str(error)}
            job.finished_at = time.time()

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------

    def _execute(self, job: Job) -> None:
        with self._lock:
            if job.status != QUEUED:
                return  # cancelled while queued
            job.status = RUNNING
            job.started_at = time.time()

        # Single-flight per cache key: concurrent identical submissions
        # build once; followers wait and then hit the memory tier.
        leader = False
        with self._lock:
            event = self._inflight.get(job.cache_key)
            if event is None:
                event = threading.Event()
                self._inflight[job.cache_key] = event
                leader = True
        if not leader:
            while not event.wait(0.05):
                if job.token.cancelled:
                    with self._lock:
                        job.status = CANCELLED
                        job.interrupt_reason = job.token.reason
                        job.finished_at = time.time()
                    return
        try:
            self._run_job(job)
        finally:
            if leader:
                with self._lock:
                    self._inflight.pop(job.cache_key, None)
                event.set()

    def _run_job(self, job: Job) -> None:
        session = AnalysisSession(cache=self.cache)
        try:
            artifact, tier = self._run_stage(session, job)
        except BuildInterruptedError as error:
            with self._lock:
                job.interrupt_reason = error.reason
                job.checkpoint_path = (
                    error.checkpoint.path if error.checkpoint is not None else None
                )
                job.resumable = error.checkpoint is not None
                job.status = INTERRUPTED if error.reason == "deadline" else CANCELLED
                job.finished_at = time.time()
            return
        except (ReproError, ValueError, TypeError, KeyError) as error:
            # Expected job errors (unbounded net, bad parameters): record
            # them without the pool thread's traceback log.
            self._record_failure(job, error)
            return
        # Render outside the lock: polls, submissions and /healthz must not
        # wait behind a slow summary.
        result = describe_artifact(job.stage, artifact, job.net)
        with self._lock:
            job.result = result
            job.tier = tier
            job.status = DONE
            job.finished_at = time.time()
        self._cleanup_checkpoint(job)

    def _cleanup_checkpoint(self, job: Job) -> None:
        """Drop the per-job checkpoint directory once the job completed."""
        path = os.path.join(self.state_dir, job.id)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)

    def _control_for(self, job: Job) -> RunControl:
        checkpoint_dir = os.path.join(self.state_dir, job.id)
        return RunControl(
            deadline=job.deadline,
            token=job.token,
            checkpoint_every=job.checkpoint_every or self.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            progress=lambda report: self._record_progress(job, report),
            progress_every=job.progress_every or DEFAULT_PROGRESS_EVERY,
            clock=self.clock,
        )

    def _record_progress(self, job: Job, report: Progress) -> None:
        with self._lock:
            job.progress = {
                "expanded": report.expanded,
                "states": report.states,
                "edges": report.edges,
                "seconds": round(report.seconds, 3),
            }

    def _run_stage(self, session: AnalysisSession, job: Job):
        """Run the job's stage through its per-job session; returns
        ``(artifact, tier)``."""
        if job.resume_from is not None:
            return self._run_resume(job)
        stage = job.stage
        params = job.params
        net = job.net
        if stage == "tables":
            from ..engine.tables import NetTables

            return session.fetch_tiered(
                net, "tables", {}, lambda: NetTables.of(net)
            )
        control = self._control_for(job) if stage in CONTROL_STAGES else None
        if stage == "untimed":
            kwargs = {key: params[key] for key in ("engine",) if key in params}
            artifact = session.untimed_graph(
                net,
                max_states=params.get("max_states", 100_000),
                control=control,
                **kwargs,
            )
        elif stage == "coverability":
            artifact = session.coverability_graph(
                net,
                max_nodes=params.get("max_nodes", 50_000),
                control=control,
            )
        elif stage == "gspn":
            kwargs = {key: params[key] for key in ("engine",) if key in params}
            artifact = session.gspn_solution(
                net,
                rates=params.get("rates"),
                max_states=params.get("max_states", 50_000),
                place_capacity=params.get("place_capacity"),
                control=control,
                **kwargs,
            )
        elif stage == "decision":
            artifact = session.decision(
                net,
                max_states=params.get("max_states", 100_000),
                fold_cycles=params.get("fold_cycles", True),
            )
        elif stage == "performance":
            artifact = session.performance(
                net,
                max_states=params.get("max_states", 100_000),
                time_unit=params.get("time_unit", "ms"),
            )
        elif stage == "query":
            artifact = session.query(
                net,
                params["kind"],
                target=params.get("target"),
                place=params.get("place"),
                k=params.get("k"),
                max_states=params.get("max_states", 100_000),
                control=control,
            )
        else:  # pragma: no cover - schemas reject unknown stages
            raise ValueError(f"unknown stage {stage!r}")
        return artifact, self._tier_of(session, job.stage)

    @staticmethod
    def _tier_of(session: AnalysisSession, stage: str) -> str:
        counts = session.stage_outcomes.get(STAGE_KEYS[stage], {})
        # A per-job session runs the stage exactly once, so there is one
        # (tier, 1) entry; fall back to the latest insertion otherwise.
        return next(reversed(counts), None) or "built"

    def _run_resume(self, job: Job):
        """Complete an interrupted job from its checkpoint, through the cache."""
        checkpoint = Checkpoint.load(job.resume_from)
        control = self._control_for(job)

        def build():
            artifact = resume_checkpoint(checkpoint, control=control)
            if job.stage == "gspn":
                artifact = artifact.solve()
            return artifact

        artifact, tier = self.cache.fetch(
            job.cache_key, stage=STAGE_KEYS[job.stage], build=build
        )
        with self._lock:
            job.resume_from = None
        return artifact, tier


__all__ = [
    "CANCELLED",
    "CONTROL_STAGES",
    "DEFAULT_CHECKPOINT_EVERY",
    "DEFAULT_PROGRESS_EVERY",
    "DEFAULT_WORKERS",
    "DONE",
    "ERROR",
    "INTERRUPTED",
    "Job",
    "JobManager",
    "QUEUED",
    "RUNNING",
    "STAGE_KEYS",
    "TERMINAL_STATES",
    "describe_artifact",
    "stage_cache_params",
]
