"""Determinism and behavior tests for the content-addressed analysis cache.

The contract under test: an artifact served from the cache — in-memory,
from disk, or from a previous *process* — is **bit-identical** to a cold
build, for every bundled workload and every stage (timed/untimed/
coverability graphs, GSPN solutions, decision graphs, performance
expressions).  The comparisons reuse the exact-equality assertions of the
engine differential gate (:mod:`engine_diff`), so "cache hit" is held to
the same standard as "different engine".
"""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import repro
from engine_diff import (
    NUMERIC_WORKLOADS,
    TIMED_WORKLOAD_IDS,
    TIMED_WORKLOADS,
    UNBOUNDED_UNTIMED,
    WORKLOAD_IDS,
    assert_coverability_graphs_identical,
    assert_gspn_results_identical,
    assert_timed_graphs_identical,
    assert_untimed_graphs_identical,
    build_symbolic_timed_cached_roundtrip,
    build_timed_cached_roundtrip,
    symbolic_workload,
)
from repro.analysis import AnalysisSession, ArtifactCache, params_token
from repro.engine import NetTables, clear_shared_tables, tables_cache_stats
from repro.protocols import go_back_n_net, sliding_window_net


def window_net(frames=2):
    """The standing compressed-delay lossy window workload."""
    return sliding_window_net(
        frames,
        loss_probability=Fraction(1, 10),
        packet_delay=2,
        ack_delay=2,
        timeout=6,
    )


# ---------------------------------------------------------------------------
# Codec round trips (the bytes a disk hit reads), wired into the gate
# ---------------------------------------------------------------------------


class TestCodecDeterminism:
    @pytest.mark.parametrize("label,constructor", TIMED_WORKLOADS, ids=TIMED_WORKLOAD_IDS)
    def test_timed_workload(self, label, constructor):
        cold, warm = build_timed_cached_roundtrip(constructor())
        assert_timed_graphs_identical(cold, warm)

    def test_symbolic_paper_net(self):
        net, constraints = symbolic_workload()
        cold, warm = build_symbolic_timed_cached_roundtrip(net, constraints)
        assert_timed_graphs_identical(cold, warm)
        assert cold.constraint_usage() == warm.constraint_usage()


# ---------------------------------------------------------------------------
# ArtifactCache mechanics
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_params_token_is_canonical(self):
        assert params_token(None) == ""
        assert params_token({"b": 2, "a": 1}) == params_token({"a": 1, "b": 2})
        assert params_token({"p": Fraction(1, 10)}) == "p=1/10"
        assert params_token({"rates": {"t2": 2.0, "t1": 1.0}}) == params_token(
            {"rates": {"t1": 1.0, "t2": 2.0}}
        )
        assert params_token({"a": 1}) != params_token({"a": 2})

    def test_key_for_separates_stage_and_params(self):
        net = window_net()
        key = ArtifactCache.key_for(net, "timed-graph", {"max_states": 100})
        assert key.startswith("tpn1:")
        assert key != ArtifactCache.key_for(net, "timed-graph", {"max_states": 200})
        assert key != ArtifactCache.key_for(net, "untimed-graph", {"max_states": 100})

    def test_memory_tier_lru_eviction(self):
        cache = ArtifactCache(memory_limit=2)
        for index in range(3):
            cache.fetch(f"k{index}", stage="s", build=lambda index=index: index)
        stats = cache.stats()
        assert stats["memory_entries"] == 2
        assert stats["evictions"] == 1
        # k0 was evicted (memory-only cache: rebuild), k2 still resident.
        _artifact, tier = cache.fetch("k2", stage="s", build=lambda: -1)
        assert tier == "memory"
        _artifact, tier = cache.fetch("k0", stage="s", build=lambda: 0)
        assert tier == "built"

    def test_disk_tier_round_trip_and_clear(self, tmp_path):
        directory = str(tmp_path / "cache")
        with ArtifactCache(directory) as cache:
            value, tier = cache.fetch("k", stage="s", build=lambda: {"x": 1})
            assert tier == "built" and value == {"x": 1}
        with ArtifactCache(directory) as cache:
            value, tier = cache.fetch("k", stage="s", build=lambda: pytest.fail("rebuilt"))
            assert tier == "disk" and value == {"x": 1}
            assert cache.stats()["disk_entries"] == 1
            assert cache.clear() == 1
            assert cache.stats()["disk_entries"] == 0

    def test_rejects_bad_memory_limit(self):
        with pytest.raises(ValueError):
            ArtifactCache(memory_limit=0)


# ---------------------------------------------------------------------------
# AnalysisSession: every stage, warm == cold, for every bundled workload
# ---------------------------------------------------------------------------


class TestAnalysisSession:
    @pytest.mark.parametrize("label,constructor", TIMED_WORKLOADS, ids=TIMED_WORKLOAD_IDS)
    def test_timed_stage_disk_hit_is_bit_identical(self, label, constructor, tmp_path):
        directory = str(tmp_path / "cache")
        with AnalysisSession(cache_dir=directory) as session:
            cold = session.timed_graph(constructor())
            assert session.stage_outcomes["timed-graph"] == {"built": 1}
        with AnalysisSession(cache_dir=directory) as session:
            warm = session.timed_graph(constructor())
            assert session.stage_outcomes["timed-graph"] == {"disk": 1}
        assert_timed_graphs_identical(cold, warm)

    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_untimed_and_coverability_stages(self, label, constructor, tmp_path):
        directory = str(tmp_path / "cache")
        bounded = label not in UNBOUNDED_UNTIMED
        with AnalysisSession(cache_dir=directory) as session:
            cold_cover = session.coverability_graph(constructor())
            if bounded:
                cold = session.untimed_graph(constructor())
        with AnalysisSession(cache_dir=directory) as session:
            warm_cover = session.coverability_graph(constructor())
            assert session.stage_outcomes["coverability-graph"] == {"disk": 1}
            if bounded:
                warm = session.untimed_graph(constructor())
                assert session.stage_outcomes["untimed-graph"] == {"disk": 1}
        assert_coverability_graphs_identical(cold_cover, warm_cover)
        if bounded:
            assert_untimed_graphs_identical(cold, warm)

    def test_gspn_stage(self, tmp_path):
        directory = str(tmp_path / "cache")
        net = window_net()
        with AnalysisSession(cache_dir=directory) as session:
            cold = session.gspn_solution(net)
        with AnalysisSession(cache_dir=directory) as session:
            warm = session.gspn_solution(net)
            assert session.stage_outcomes["gspn-solution"] == {"disk": 1}
            # Different rates are a different artifact, not a stale hit.
            other = session.gspn_solution(net, rates={name: 1.0 for name in net.transition_order})
        assert_gspn_results_identical(cold, warm)
        assert other.throughput != warm.throughput

    def test_decision_and_performance_stages(self, tmp_path):
        directory = str(tmp_path / "cache")
        net = window_net()
        with AnalysisSession(cache_dir=directory) as session:
            cold_decision = session.decision(net)
            cold_performance = session.performance(net)
            # Both stages share the cached timed graph instance.
            graph = session.timed_graph(net)
            assert cold_decision.trg is graph
            assert cold_performance.reachability is graph
        with AnalysisSession(cache_dir=directory) as session:
            warm_decision = session.decision(net)
            warm_performance = session.performance(net)
            assert session.stage_outcomes["decision-graph"] == {"disk": 1}
            assert session.stage_outcomes["performance"] == {"disk": 1}
            warm_graph = session.timed_graph(net)
            assert warm_decision.trg is warm_graph
            assert warm_performance.reachability is warm_graph
        assert warm_decision.edge_table() == cold_decision.edge_table()
        assert warm_performance.cycle_time().value == cold_performance.cycle_time().value
        for name in net.transition_order:
            assert (
                warm_performance.throughput(name).value
                == cold_performance.throughput(name).value
            )

    def test_symbolic_performance_stage(self, tmp_path):
        directory = str(tmp_path / "cache")
        net, constraints = symbolic_workload()
        with AnalysisSession(cache_dir=directory) as session:
            cold = session.performance(net, constraints)
        with AnalysisSession(cache_dir=directory) as session:
            warm = session.performance(net, constraints)
            assert session.stage_outcomes["performance"] == {"disk": 1}
        assert str(warm.throughput("t2").value) == str(cold.throughput("t2").value)

    def test_memory_hits_return_same_object(self):
        with AnalysisSession() as session:  # memory-only
            net = window_net()
            first = session.timed_graph(net)
            second = session.timed_graph(window_net())  # equal net, new object
            assert first is second
            assert session.stage_outcomes["timed-graph"] == {"built": 1, "memory": 1}

    def test_cache_report_unifies_every_surface(self):
        with AnalysisSession() as session:
            session.timed_graph(window_net())
            report = session.cache_report()
        assert set(report) == {"artifacts", "stages", "tables", "branch", "intern"}
        assert report["artifacts"]["misses"] == 1
        assert report["stages"]["timed-graph"] == {"built": 1}
        assert {"hits", "misses", "evictions"} <= set(report["tables"])


class TestNetTablesSharing:
    def test_structurally_equal_nets_share_tables(self):
        clear_shared_tables()
        first, second = window_net(), window_net()
        assert first is not second
        assert NetTables.of(first) is NetTables.of(second)
        stats = tables_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1


class TestNetTablesPickling:
    """The ``tables`` stage pickles :class:`NetTables` into the disk tier."""

    def test_round_trip_preserves_tables(self):
        net = sliding_window_net(2, loss_probability=Fraction(1, 10))
        tables = NetTables(net)
        vec = tables.initial_vector()
        tables.enabled_transitions(vec)  # populate the memo that must be dropped
        clone = pickle.loads(pickle.dumps(tables))
        assert clone.place_names == tables.place_names
        assert clone.transition_names == tables.transition_names
        assert clone.inputs == tables.inputs
        assert clone.outputs == tables.outputs
        assert clone.deltas == tables.deltas
        assert clone.consumers_of_place == tables.consumers_of_place
        assert clone.group_of == tables.group_of

    def test_enabled_memo_not_stored(self):
        net = sliding_window_net(2)
        tables = NetTables(net)
        tables.enabled_transitions(tables.initial_vector())
        assert tables._enabled_cache
        clone = pickle.loads(pickle.dumps(tables))
        assert clone._enabled_cache == {}
        # ... and the clone still computes the same enabled sets.
        vec = clone.initial_vector()
        assert clone.enabled_transitions(vec) == tables.enabled_transitions(vec)

    def test_fire_after_round_trip(self):
        net = go_back_n_net(2, loss_probability=Fraction(1, 10))
        tables = NetTables(net)
        clone = pickle.loads(pickle.dumps(tables))
        vec = tables.initial_vector()
        for transition in tables.enabled_transitions(vec):
            assert clone.fire_atomic(vec, transition) == tables.fire_atomic(vec, transition)


# ---------------------------------------------------------------------------
# Process restart: a fresh interpreter must hit disk, bit-identically
# ---------------------------------------------------------------------------

_RESTART_SCRIPT = """\
import hashlib, sys
from fractions import Fraction
from repro.analysis import AnalysisSession
from repro.protocols import sliding_window_net

net = sliding_window_net(
    2, loss_probability=Fraction(1, 10), packet_delay=2, ack_delay=2, timeout=6
)
with AnalysisSession(cache_dir=sys.argv[1]) as session:
    graph = session.timed_graph(net)
    result = session.gspn_solution(net)
    performance = session.performance(net)
    tier = sys.argv[2]
    for stage in ("timed-graph", "gspn-solution", "performance"):
        # The performance stage re-fetches the timed graph (a memory hit),
        # so assert on the tier that produced each artifact, not the counts.
        outcomes = session.stage_outcomes[stage]
        assert tier in outcomes, (stage, session.stage_outcomes)
        assert "built" not in outcomes or tier == "built", (stage, session.stage_outcomes)
payload = repr((
    graph.state_table(),
    graph.edge_table(),
    sorted(result.throughput.items()),
    str(performance.cycle_time().value),
))
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def test_disk_cache_survives_process_restart(tmp_path):
    """Cold in one interpreter, warm in another: same bytes, same results."""
    directory = str(tmp_path / "cache")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run(tier):
        return subprocess.run(
            [sys.executable, "-c", _RESTART_SCRIPT, directory, tier],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()

    cold_digest = run("built")
    warm_digest = run("disk")
    assert cold_digest == warm_digest


# ---------------------------------------------------------------------------
# Acceptance: warm re-analysis of the window-4 workload is >= 10x faster
# ---------------------------------------------------------------------------


def test_warm_cache_window4_acceptance(tmp_path):
    """Graph + throughput of ``sliding_window_net(4, lossy)``: a warm-cache
    re-analysis (fresh session on a populated disk cache, i.e. after a
    process restart) must be at least 10x faster than the cold build and
    bit-identical to it."""
    directory = str(tmp_path / "cache")
    net = window_net(4)

    # Earlier tests leave large object graphs behind; collect once and pause
    # the collector so both measurements see the same allocator behavior.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with AnalysisSession(cache_dir=directory) as session:
            cold_graph = session.timed_graph(net)
            cold_result = session.gspn_solution(net)
        cold_seconds = time.perf_counter() - start

        best = None
        for _ in range(3):
            start = time.perf_counter()
            with AnalysisSession(cache_dir=directory) as session:
                warm_graph = session.timed_graph(net)
                warm_result = session.gspn_solution(net)
                outcomes = dict(session.stage_outcomes)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None or elapsed < best else best
    finally:
        gc.enable()
    assert outcomes == {"timed-graph": {"disk": 1}, "gspn-solution": {"disk": 1}}

    assert_timed_graphs_identical(cold_graph, warm_graph)
    assert_gspn_results_identical(cold_result, warm_result)
    speedup = cold_seconds / best
    assert speedup >= 10.0, (
        f"warm re-analysis only {speedup:.1f}x faster than cold "
        f"({cold_seconds:.2f}s -> {best:.2f}s)"
    )


class TestMaintenanceUnderContention:
    """``stats()``/``clear()`` must ride the same bounded-backoff retry as
    the fetch paths: a transient ``database is locked`` from a concurrent
    writer sharing the cache directory is absorbed, and an exhausted retry
    budget surfaces as a typed ``StoreError`` — never as a raw
    ``sqlite3.OperationalError``.  (Regression: both methods used to issue
    their SQL outside ``locked_retry``.)"""

    @staticmethod
    def _populated_cache(tmp_path):
        from repro.engine import faults  # noqa: F401 - symmetry with the tests

        cache = ArtifactCache(str(tmp_path / "cache"))
        net = window_net(2)
        cache.fetch(
            cache.key_for(net, "stage-a"), stage="stage-a", build=lambda: {"a": 1}
        )
        return cache

    def test_stats_absorbs_transient_locks(self, tmp_path):
        from repro.engine import faults
        from repro.engine.faults import FaultPlan

        with self._populated_cache(tmp_path) as cache:
            with faults.inject(FaultPlan(locked_writes=2)):
                stats = cache.stats()
            assert stats["disk_entries"] == 1

    def test_stats_exhausted_retries_raise_typed_error(self, tmp_path):
        from repro.engine import faults
        from repro.engine.faults import FaultPlan
        from repro.engine.store import RETRY_ATTEMPTS
        from repro.exceptions import StoreError

        with self._populated_cache(tmp_path) as cache:
            with faults.inject(FaultPlan(locked_writes=RETRY_ATTEMPTS * 2)):
                with pytest.raises(StoreError):
                    cache.stats()

    def test_clear_absorbs_transient_locks(self, tmp_path):
        from repro.engine import faults
        from repro.engine.faults import FaultPlan

        with self._populated_cache(tmp_path) as cache:
            with faults.inject(FaultPlan(locked_writes=2)):
                removed = cache.clear()
            assert removed == 1
            assert cache.stats()["disk_entries"] == 0

    def test_clear_exhausted_retries_raise_typed_error(self, tmp_path):
        from repro.engine import faults
        from repro.engine.faults import FaultPlan
        from repro.engine.store import RETRY_ATTEMPTS
        from repro.exceptions import StoreError

        with self._populated_cache(tmp_path) as cache:
            with faults.inject(FaultPlan(locked_writes=RETRY_ATTEMPTS * 2)):
                with pytest.raises(StoreError):
                    cache.clear()
            # The entry survived the failed wipe; a later clear succeeds.
            assert cache.clear() == 1
