"""The content-addressed analysis pipeline facade.

:class:`AnalysisSession` runs every stage of the Razouk pipeline —
structural tables, timed/untimed/coverability/GSPN graphs, decision
collapse, performance expressions — through one
:class:`~repro.analysis.cache.ArtifactCache`, keyed on the net's content
fingerprint (:mod:`repro.petri.fingerprint`) plus the stage and its
parameters.  Within a process, repeated stages return the same objects;
with a cache directory, repeated *processes* hit disk instead of
rebuilding, bit-identically (the differential suite asserts it for every
bundled workload).

The session also unifies the tree's scattered cache telemetry —
``branch_cache_stats()``, ``intern_stats()``, the shared-tables memo of
``NetTables.of`` and the artifact tiers — into one :meth:`cache_report`.
"""

from __future__ import annotations

import pickle
import threading
from typing import Dict, Mapping, Optional

from ..engine.tables import NetTables, tables_cache_stats
from ..performance.evaluation import PerformanceAnalysis
from ..petri.fingerprint import constraints_digest
from ..petri.net import TimedPetriNet
from ..petri.untimed import coverability_graph as build_coverability_graph
from ..petri.untimed import reachability_graph as build_untimed_graph
from ..reachability.algebra import branch_cache_stats
from ..reachability.decision import DecisionGraph, decision_graph
from ..reachability.graph import (
    TimedReachabilityGraph,
    symbolic_timed_reachability_graph,
    timed_reachability_graph,
)
from ..stochastic.gspn import GSPNAnalysis, GSPNResult
from ..symbolic.constraints import ConstraintSet
from ..symbolic.interning import intern_stats
from .cache import ArtifactCache
from .codec import decode_timed_graph, dump_with_graph, encode_timed_graph, load_with_graph

#: Stage names used in cache keys and reports.
STAGE_TIMED = "timed-graph"
STAGE_UNTIMED = "untimed-graph"
STAGE_COVERABILITY = "coverability-graph"
STAGE_GSPN = "gspn-solution"
STAGE_DECISION = "decision-graph"
STAGE_PERFORMANCE = "performance"
STAGE_QUERY = "query"


class AnalysisSession:
    """Run analysis stages through a content-addressed artifact cache.

    Parameters
    ----------
    cache:
        An explicit :class:`ArtifactCache` to share between sessions.
    cache_dir:
        Convenience: build a cache with this disk directory (ignored when
        ``cache`` is given).  ``None`` keeps artifacts memory-only.
    memory_limit:
        Memory-tier bound when the session builds its own cache.

    Stage parameters that select *what* is computed (``max_states``, rates,
    capacities, time units, constraint sets) participate in cache keys.
    Parameters that only select *how* (``engine=`` — all engines are
    bit-identical by the differential gate) do not: they steer
    cold builds and are irrelevant on hits.
    """

    def __init__(
        self,
        *,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        memory_limit: Optional[int] = None,
    ):
        if cache is None:
            kwargs = {} if memory_limit is None else {"memory_limit": memory_limit}
            cache = ArtifactCache(cache_dir, **kwargs)
        self.cache = cache
        #: Per-stage tier counts, e.g. ``{"timed-graph": {"built": 1, "disk": 2}}``.
        self.stage_outcomes: Dict[str, Dict[str, int]] = {}
        # Sessions may be driven from several threads at once (the analysis
        # server shares one cache but hands each job its own session; a
        # shared session must still not corrupt its outcome counts).
        self._outcomes_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _fetch(self, net, stage, params, build, *, encode=None, decode=None):
        artifact, _tier = self.fetch_tiered(
            net, stage, params, build, encode=encode, decode=decode
        )
        return artifact

    def fetch_tiered(self, net, stage, params, build, *, encode=None, decode=None):
        """Run ``build`` through the cache, returning ``(artifact, tier)``.

        The tier is one of the :class:`ArtifactCache` tier labels
        (``"memory"``/``"disk"``/``"built"``); the analysis server reports
        it back to clients so cache behaviour is observable per request.
        """
        key = ArtifactCache.key_for(net, stage, params)
        kwargs = {}
        if encode is not None:
            kwargs["encode"] = encode
        if decode is not None:
            kwargs["decode"] = decode
        artifact, tier = self.cache.fetch(key, stage=stage, build=build, **kwargs)
        with self._outcomes_lock:
            per_stage = self.stage_outcomes.setdefault(stage, {})
            per_stage[tier] = per_stage.get(tier, 0) + 1
        return artifact, tier

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------

    def tables(self, net: TimedPetriNet) -> NetTables:
        """The shared structural tables (already content-keyed process-wide)."""
        return NetTables.of(net)

    def timed_graph(
        self,
        net: TimedPetriNet,
        constraints: Optional[ConstraintSet] = None,
        *,
        max_states: int = 100_000,
        engine: Optional[str] = None,
    ) -> TimedReachabilityGraph:
        """The (numeric or symbolic) timed reachability graph, cached.

        Stored through the compact codec of :mod:`repro.analysis.codec`;
        a disk hit rehydrates in a fraction of the exploration cost.
        """
        params = {"max_states": max_states, "constraints": constraints_digest(constraints)}
        build_kwargs: Dict[str, object] = {"max_states": max_states}
        if engine is not None:
            build_kwargs["engine"] = engine

        def build():
            if constraints is not None or net.is_symbolic:
                return symbolic_timed_reachability_graph(
                    net, constraints if constraints is not None else ConstraintSet(), **build_kwargs
                )
            return timed_reachability_graph(net, **build_kwargs)

        return self._fetch(
            net,
            STAGE_TIMED,
            params,
            build,
            encode=encode_timed_graph,
            decode=lambda blob: decode_timed_graph(blob, net),
        )

    def untimed_graph(self, net: TimedPetriNet, *, max_states: int = 100_000, **build_kwargs):
        """The untimed reachability graph, cached (pickled wholesale)."""
        return self._fetch(
            net,
            STAGE_UNTIMED,
            {"max_states": max_states},
            lambda: build_untimed_graph(net, max_states=max_states, **build_kwargs),
        )

    def coverability_graph(self, net: TimedPetriNet, *, max_nodes: int = 50_000, **build_kwargs):
        """The Karp–Miller coverability graph, cached (pickled wholesale)."""
        return self._fetch(
            net,
            STAGE_COVERABILITY,
            {"max_nodes": max_nodes},
            lambda: build_coverability_graph(net, max_nodes=max_nodes, **build_kwargs),
        )

    def gspn_solution(
        self,
        net: TimedPetriNet,
        *,
        rates: Optional[Mapping[str, float]] = None,
        max_states: int = 50_000,
        place_capacity: Optional[int] = None,
        **build_kwargs,
    ) -> GSPNResult:
        """The stationary GSPN solution (tangible states, throughput, ...), cached."""
        params = {
            "max_states": max_states,
            "place_capacity": place_capacity,
            "rates": {name: float(value) for name, value in (rates or {}).items()},
        }

        def build():
            return GSPNAnalysis(
                net,
                rates=rates,
                max_states=max_states,
                place_capacity=place_capacity,
                **build_kwargs,
            ).solve()

        return self._fetch(net, STAGE_GSPN, params, build)

    def decision(
        self,
        net: TimedPetriNet,
        constraints: Optional[ConstraintSet] = None,
        *,
        max_states: int = 100_000,
        fold_cycles: bool = True,
    ) -> DecisionGraph:
        """The decision-graph collapse of the timed graph, cached.

        The artifact stores the collapse with its reachability graph
        swapped for a stub, so a hit shares the (cached) timed-graph
        instance instead of rehydrating a second copy.
        """
        params = {
            "max_states": max_states,
            "constraints": constraints_digest(constraints),
            "fold_cycles": fold_cycles,
        }

        def build():
            graph = self.timed_graph(net, constraints, max_states=max_states)
            return decision_graph(graph, fold_cycles=fold_cycles)

        def encode(collapse: DecisionGraph) -> bytes:
            graph_blob, artifact_blob = dump_with_graph(collapse, collapse.trg)
            return pickle.dumps((graph_blob, artifact_blob), protocol=pickle.HIGHEST_PROTOCOL)

        def decode(payload: bytes) -> DecisionGraph:
            graph_blob, artifact_blob = pickle.loads(payload)
            graph = self.timed_graph(net, constraints, max_states=max_states)
            _, collapse = load_with_graph(graph_blob, artifact_blob, net, graph=graph)
            return collapse

        return self._fetch(net, STAGE_DECISION, params, build, encode=encode, decode=decode)

    def performance(
        self,
        net: TimedPetriNet,
        constraints: Optional[ConstraintSet] = None,
        *,
        max_states: int = 100_000,
        time_unit: str = "ms",
    ) -> PerformanceAnalysis:
        """The end-to-end performance analysis, cached.

        Like :meth:`decision`, the stored artifact references the timed
        graph through a stub; a hit rehydrates the decision graph, rates
        and metrics and re-links them to the cached graph.
        """
        params = {
            "max_states": max_states,
            "constraints": constraints_digest(constraints),
            "time_unit": time_unit,
        }

        def build():
            graph = self.timed_graph(net, constraints, max_states=max_states)
            return PerformanceAnalysis(
                net, constraints, max_states=max_states, time_unit=time_unit,
                reachability=graph,
            )

        def encode(analysis: PerformanceAnalysis) -> bytes:
            graph_blob, artifact_blob = dump_with_graph(analysis, analysis.reachability)
            return pickle.dumps((graph_blob, artifact_blob), protocol=pickle.HIGHEST_PROTOCOL)

        def decode(payload: bytes) -> PerformanceAnalysis:
            graph_blob, artifact_blob = pickle.loads(payload)
            graph = self.timed_graph(net, constraints, max_states=max_states)
            _, analysis = load_with_graph(graph_blob, artifact_blob, net, graph=graph)
            return analysis

        return self._fetch(net, STAGE_PERFORMANCE, params, build, encode=encode, decode=decode)

    def query(
        self,
        net: TimedPetriNet,
        kind: str,
        *,
        target: Optional[Mapping[str, int]] = None,
        place: Optional[str] = None,
        k: Optional[int] = None,
        max_states: int = 100_000,
        **build_kwargs,
    ):
        """An early-terminating reachability query, cached.

        ``kind`` selects the question: ``"reachable"`` (requires
        ``target``), ``"bound"`` (requires ``place`` and ``k``) or
        ``"deadlock"``.  The :class:`~repro.engine.query.QueryResult` is
        cached like any other artifact — a definitive answer on an
        unchanged net never re-explores.
        """
        from ..engine import query as queries

        params: Dict[str, object] = {"kind": kind, "max_states": max_states}
        if kind == "reachable":
            if target is None:
                raise ValueError("query kind 'reachable' requires a target marking")
            params["target"] = {name: int(count) for name, count in target.items()}
            build = lambda: queries.is_reachable(  # noqa: E731
                net, target, max_states=max_states, **build_kwargs
            )
        elif kind == "bound":
            if place is None or k is None:
                raise ValueError("query kind 'bound' requires place and k")
            params["place"] = place
            params["k"] = int(k)
            build = lambda: queries.bound_check(  # noqa: E731
                net, place, int(k), max_states=max_states, **build_kwargs
            )
        elif kind == "deadlock":
            build = lambda: queries.find_deadlock(  # noqa: E731
                net, max_states=max_states, **build_kwargs
            )
        else:
            raise ValueError(
                f"unknown query kind {kind!r}; expected 'reachable', 'bound' or 'deadlock'"
            )
        return self._fetch(net, STAGE_QUERY, params, build)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def cache_report(self) -> Dict[str, object]:
        """One unified hit/miss/eviction report across every cache surface.

        Absorbs the artifact tiers, the per-stage outcome counts of this
        session, the content-keyed shared-tables memo of ``NetTables.of``,
        the branch-probability caches (already content-addressed: keyed on
        conflict-set frequency tuples) and the symbolic intern tables.
        """
        return {
            "artifacts": self.cache.stats(),
            "stages": {stage: dict(counts) for stage, counts in self.stage_outcomes.items()},
            "tables": tables_cache_stats(),
            "branch": branch_cache_stats(),
            "intern": intern_stats(),
        }

    def close(self) -> None:
        self.cache.close()

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


__all__ = [
    "AnalysisSession",
    "STAGE_COVERABILITY",
    "STAGE_DECISION",
    "STAGE_GSPN",
    "STAGE_PERFORMANCE",
    "STAGE_QUERY",
    "STAGE_TIMED",
    "STAGE_UNTIMED",
]
