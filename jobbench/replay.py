"""In-process replay of service jobs, one span per layer call.

:func:`replay_job` runs the job pipeline of ``repro.service`` in pipeline
order — parse, fingerprint and canonical election, artifact-cache fetch
(whose build calls table compile, the graph builders, decision collapse,
performance algebra and codec encode), render — by calling each layer's
public function directly, so the benchmark can put a span around each
call.  Nothing inside the program is instrumented.  The one layer the
program only reaches from inside another call, the decision collapse that
``PerformanceAnalysis`` runs, is traced by wrapping that module attribute
for the duration of a traced replay.

The replay is also the reference the service's results are checked
against: it uses the same cache keys, the same run-control settings and the
same renderer as the job manager, so its result must equal the service's
exactly.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from repro.analysis import ArtifactCache
from repro.analysis.codec import dump_with_graph, encode_timed_graph
from repro.analysis.session import STAGE_TIMED
from repro.engine.query import find_deadlock
from repro.engine.runtime import CancellationToken, RunControl
from repro.engine.tables import NetTables, clear_shared_tables
from repro.performance import evaluation
from repro.petri.fingerprint import constraints_digest, net_cache_key, net_fingerprint
from repro.petri.untimed import reachability_graph
from repro.reachability.algebra import clear_branch_caches
from repro.reachability.decision import decision_graph
from repro.reachability.graph import timed_reachability_graph
from repro.service.jobs import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_PROGRESS_EVERY,
    STAGE_KEYS,
    describe_artifact,
    stage_cache_params,
)
from repro.service.schemas import parse_job
from repro.stochastic.gspn import GSPNAnalysis
from repro.symbolic import clear_intern_tables

from spans import ROOT


def reset_process_caches() -> None:
    """Forget every process-wide memo, so a second replay starts as cold as the first."""
    clear_shared_tables()
    clear_branch_caches()
    clear_intern_tables()


class ReplayContext:
    """What the job manager shares between jobs: the cache and the elected nets.

    With ``mirror=True`` the replay does what the service does around each
    build: a disk tier (codec encode, SQLite write) and run control with
    periodic checkpoints.  ``mirror=False`` keeps the cache in memory and
    runs without control — the same results at less cost, for checking
    results when no spans are reported.
    """

    def __init__(self, directory: str, tracer, *, mirror: bool = True):
        self.directory = directory
        self.mirror = mirror
        self.cache = ArtifactCache(os.path.join(directory, "cache") if mirror else None)
        self.state_dir = os.path.join(directory, "jobs")
        self.elected: Dict[str, object] = {}
        self.tracer = tracer

    def close(self) -> None:
        self.cache.close()


@contextmanager
def traced_attribute(module, name: str, span_name: str, tracer):
    """Record a span around every call of ``module.name`` while active."""
    original = getattr(module, name, None)
    if original is None or not tracer.enabled:
        yield
        return

    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return original(*args, **kwargs)

    setattr(module, name, wrapper)
    try:
        yield
    finally:
        setattr(module, name, original)


def _encode_with(tracer, encode: Callable[[object], bytes]) -> Callable[[object], bytes]:
    def traced(artifact) -> bytes:
        with tracer.span("analysis.codec.encode") as span:
            blob = encode(artifact)
            span.attrs["bytes"] = len(blob)
        return blob

    return traced


def _pickle(artifact) -> bytes:
    return pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)


def _graph_pickle(artifact, graph) -> bytes:
    return pickle.dumps(dump_with_graph(artifact, graph), protocol=pickle.HIGHEST_PROTOCOL)


def _timed_graph(ctx: ReplayContext, net, max_states: int):
    tracer = ctx.tracer
    key = ArtifactCache.key_for(
        net, STAGE_TIMED, {"max_states": max_states, "constraints": constraints_digest(None)}
    )

    def build():
        with tracer.span("reachability.timed_build") as span:
            graph = timed_reachability_graph(net, max_states=max_states)
            span.attrs["states"] = graph.state_count
        return graph

    with tracer.span("analysis.cache.fetch"):
        graph, _tier = ctx.cache.fetch(
            key, stage=STAGE_TIMED, build=build, encode=_encode_with(tracer, encode_timed_graph)
        )
    return graph


def _control(ctx: ReplayContext, job_id: str) -> Optional[RunControl]:
    if not ctx.mirror:
        return None
    return RunControl(
        token=CancellationToken(),
        checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
        checkpoint_dir=os.path.join(ctx.state_dir, job_id),
        progress=lambda report: None,
        progress_every=DEFAULT_PROGRESS_EVERY,
        clock=time.monotonic,
    )


def _build(ctx: ReplayContext, job_id: str, stage: str, net, params: Dict[str, object]):
    """``(build, encode)`` of a stage, mirroring ``AnalysisSession``."""
    tracer = ctx.tracer
    max_states = params.get("max_states", 100_000)

    def tables() -> None:
        with tracer.span("engine.tables.compile"):
            NetTables.of(net)

    if stage == "decision":

        def build():
            graph = _timed_graph(ctx, net, max_states)
            with tracer.span("reachability.decision"):
                return decision_graph(graph, fold_cycles=params.get("fold_cycles", True))

        return build, lambda artifact: _graph_pickle(artifact, artifact.trg)
    if stage == "performance":

        def build():
            graph = _timed_graph(ctx, net, max_states)
            with tracer.span("performance.metrics"), traced_attribute(
                evaluation, "decision_graph", "reachability.decision", tracer
            ):
                return evaluation.PerformanceAnalysis(
                    net,
                    None,
                    max_states=max_states,
                    time_unit=params.get("time_unit", "ms"),
                    reachability=graph,
                )

        return build, lambda artifact: _graph_pickle(artifact, artifact.reachability)
    if stage == "untimed":

        def build():
            tables()
            with tracer.span("petri.untimed.build") as span:
                graph = reachability_graph(
                    net,
                    max_states=max_states,
                    control=_control(ctx, job_id),
                    **({"engine": params["engine"]} if "engine" in params else {}),
                )
                span.attrs["states"] = graph.state_count
            return graph

        return build, _pickle
    if stage == "gspn":

        def build():
            tables()
            with tracer.span("stochastic.gspn.solve"):
                return GSPNAnalysis(
                    net,
                    rates=params.get("rates"),
                    max_states=params.get("max_states", 50_000),
                    place_capacity=params.get("place_capacity"),
                    control=_control(ctx, job_id),
                    **({"engine": params["engine"]} if "engine" in params else {}),
                ).solve()

        return build, _pickle
    if stage == "query" and params.get("kind") == "deadlock":

        def build():
            tables()
            with tracer.span("engine.query.explore") as span:
                result = find_deadlock(net, max_states=max_states, control=_control(ctx, job_id))
                span.attrs["states"] = result.states_explored
            return result

        return build, _pickle
    raise ValueError(f"the replay does not cover stage {stage!r} with params {params!r}")


def replay_job(ctx: ReplayContext, job_id: str, body: bytes) -> Tuple[Dict[str, object], str]:
    """Run one job body through the pipeline; returns ``(result, tier)``."""
    tracer = ctx.tracer
    with tracer.span(ROOT, job_id=job_id):
        with tracer.span("service.schemas.parse"):
            request = parse_job(json.loads(body))
        stage, params = request.stage, request.params
        with tracer.span("petri.fingerprint"):
            net_cache_key(request.net)
            fingerprint = net_fingerprint(request.net)
            net = ctx.elected.setdefault(fingerprint, request.net)
            key = ArtifactCache.key_for(net, STAGE_KEYS[stage], stage_cache_params(stage, params))
        build, encode = _build(ctx, job_id, stage, net, params)
        with tracer.span("analysis.cache.fetch"):
            artifact, tier = ctx.cache.fetch(
                key, stage=STAGE_KEYS[stage], build=build, encode=_encode_with(tracer, encode)
            )
        with tracer.span("service.render"):
            result = describe_artifact(stage, artifact, net)
        shutil.rmtree(os.path.join(ctx.state_dir, job_id), ignore_errors=True)
    return result, tier


def normalise(result: Dict[str, object]) -> object:
    """A result as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(result))
