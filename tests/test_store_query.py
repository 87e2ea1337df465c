"""Disk-backed state store and early-terminating query layer.

Three concerns share this module:

* **DiskStateStore unit behavior** — intern/append/lookup semantics through
  the hybrid memory/SQLite store, spilling at thresholds 0 and 1, telemetry,
  argument validation, and the crash-then-reopen path
  (:meth:`~repro.engine.store.DiskStateStore.open` over an abandoned spool);
* **spill determinism** — full builds through every store-capable engine
  (compiled/batched untimed, Karp–Miller coverability, compiled/batched
  GSPN) must be bit-identical to the in-memory builds at every spill
  threshold (0, 1, never), via the shared :mod:`engine_diff` assertions;
* **queries** — ``is_reachable`` / ``bound_check`` / ``find_deadlock`` /
  ``search`` early exit (the ISSUE acceptance check: a witness is returned
  after exploring *measurably fewer* states than the full build on a
  workload whose graph exceeds the spill threshold), replayable witness
  paths, definitive negative answers, and the ``query`` CLI subcommand.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from engine_diff import (
    NUMERIC_WORKLOADS,
    SPILL_THRESHOLDS,
    UNBOUNDED_UNTIMED,
    assert_coverability_graphs_identical,
    assert_gspn_explorations_identical,
    assert_untimed_graphs_identical,
    build_coverability_spill,
    build_gspn_pair,
    build_gspn_spill,
    build_untimed_pair,
    build_untimed_spill,
)
from repro.cli import main
from repro.engine import (
    DiskStateStore,
    QueryResult,
    bound_check,
    find_deadlock,
    is_reachable,
    resolve_store,
    search,
)
from repro.exceptions import PerformanceError, UnboundedNetError
from repro.petri import coverability_graph, reachability_graph
from repro.petri.multiset import Multiset
from repro.petri.net import Place, TimedPetriNet, Transition
from repro.protocols import (
    simple_protocol_net,
    simple_protocol_symbolic,
    sliding_window_net,
    token_ring_net,
)

#: Bounded workloads for the spill-determinism sweep (a representative
#: subset; the full catalog runs through the in-memory engines in
#: ``test_engine_diff.py`` and the randomized companion already).
SPILL_WORKLOADS = [
    (label, constructor)
    for label, constructor in NUMERIC_WORKLOADS
    if label in {"producer-consumer", "token-ring", "sliding-window-lossless"}
]
SPILL_WORKLOAD_IDS = [label for label, _ in SPILL_WORKLOADS]

#: Workloads for the coverability spill sweep — includes the unbounded
#: protocol nets, whose ω-vectors exercise the canonical-tuple encoding the
#: pickled-blob dedup depends on.
COVERABILITY_SPILL_WORKLOADS = [
    (label, constructor)
    for label, constructor in NUMERIC_WORKLOADS
    if label in UNBOUNDED_UNTIMED or label == "token-ring"
]
COVERABILITY_SPILL_IDS = [label for label, _ in COVERABILITY_SPILL_WORKLOADS]


def gated_toggle_net(width: int = 8) -> TimedPetriNet:
    """``width`` independent toggles gated by a ``run`` token, plus a
    ``halt`` transition that consumes it.

    While ``run`` is marked every toggle can flip freely, so the live
    portion of the space is the full :math:`2^{width}` product; firing
    ``halt`` (enabled from the very first marking, i.e. BFS depth 1)
    disables everything — an immediate reachable deadlock in a state space
    of :math:`2^{width+1}` markings.  This is the query layer's favorite
    shape: the full build is big, the witness is shallow.
    """
    places = [Place("run", "")]
    marking = {"run": 1}
    transitions = [
        Transition(name="halt", inputs=Multiset({"run": 1}), outputs=Multiset({}))
    ]
    for i in range(width):
        places += [Place(f"on_{i}", ""), Place(f"off_{i}", "")]
        marking[f"on_{i}"] = 1
        transitions += [
            Transition(
                name=f"flip_off_{i}",
                inputs=Multiset({f"on_{i}": 1, "run": 1}),
                outputs=Multiset({f"off_{i}": 1, "run": 1}),
            ),
            Transition(
                name=f"flip_on_{i}",
                inputs=Multiset({f"off_{i}": 1, "run": 1}),
                outputs=Multiset({f"on_{i}": 1, "run": 1}),
            ),
        ]
    return TimedPetriNet("gated-toggles", places, transitions, marking)


class TestDiskStateStore:
    """Unit behavior of the hybrid memory/SQLite store."""

    def test_intern_and_dedup_in_memory(self):
        with DiskStateStore(spill_threshold=None) as store:
            assert store.intern((1, 2)) == (0, True)
            assert store.intern((3, 4)) == (1, True)
            assert store.intern((1, 2)) == (0, False)
            assert len(store) == 2
            assert store.index_of((3, 4)) == 1
            assert store.index_of((9, 9)) is None
            assert not store.spilled
            assert store.spill_bytes() == 0

    def test_item_log_in_memory(self):
        with DiskStateStore(spill_threshold=None) as store:
            assert store.append_item("a") == 0
            assert store.append_item(("b", 1)) == 1
            assert store.item_at(0) == "a"
            assert store.item_at(1) == ("b", 1)
            assert list(store.items_range(0, 2)) == ["a", ("b", 1)]
            with pytest.raises(IndexError):
                store.item_at(2)

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_spill_preserves_semantics(self, threshold):
        with DiskStateStore(spill_threshold=threshold) as store:
            keys = [(i, i % 3) for i in range(25)]
            for expected, key in enumerate(keys):
                assert store.intern(key) == (expected, True)
            # Re-interning after the spill must dedup against the shards.
            for expected, key in enumerate(keys):
                assert store.intern(key) == (expected, False)
            for index, key in enumerate(keys):
                assert store.append_item((key, index)) == index
            assert store.spilled
            assert len(store) == 25
            assert store.item_count == 25
            assert store.item_at(7) == (keys[7], 7)
            assert list(store.items_range(3, 6)) == [(keys[i], i) for i in (3, 4, 5)]
            store.flush()
            assert store.spill_bytes() > 0
            stats = store.stats()
            assert stats["states"] == 25
            assert stats["items"] == 25
            assert stats["spilled"] is True
            assert stats["shards"] == store.shards

    def test_mixed_int_float_keys_dedup_like_a_dict(self):
        # hash((5, 0)) == hash((5.0, 0.0)) in Python, but their pickles
        # differ — the store's contract is dict-equality, which is why the
        # coverability kernel canonicalizes vectors before interning.
        # The store itself documents blob identity: equal-but-differently-
        # typed keys intern separately once spilled, so callers must
        # canonicalize (this pins the behavior the kernel compensates for).
        with DiskStateStore(spill_threshold=0) as store:
            store.intern((5, 0))
            index, is_new = store.intern((5.0, 0.0))
            assert is_new
            assert index == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DiskStateStore(shards=0)
        with pytest.raises(ValueError):
            DiskStateStore(spill_threshold=-1)

    def test_resolve_store(self):
        assert resolve_store(None) == (None, False)
        with DiskStateStore(spill_threshold=None) as store:
            assert resolve_store(store) == (store, False)
        resolved, owned = resolve_store("disk", spill_threshold=3)
        try:
            assert owned
            assert resolved.spill_threshold == 3
        finally:
            resolved.close()
        with pytest.raises(ValueError):
            resolve_store("ram")

    def test_crash_then_reopen(self, tmp_path):
        spool = tmp_path / "spool"
        store = DiskStateStore(str(spool), spill_threshold=0)
        keys = [(i,) for i in range(10)]
        for key in keys:
            store.intern(key)
            store.append_item((key, "payload"))
        store.flush()
        # Simulate a crash: abandon the store without close() — the spool
        # directory survives because an explicit path is never self-cleaned.
        del store

        reopened = DiskStateStore.open(str(spool))
        try:
            assert reopened.spilled
            assert len(reopened) == 10
            assert reopened.item_count == 10
            assert reopened.item_at(4) == ((4,), "payload")
            # Existing keys dedup against the recovered shards; new keys
            # continue the index sequence.
            assert reopened.intern((3,)) == (3, False)
            assert reopened.intern((99,)) == (10, True)
        finally:
            reopened.close()
        # close() on a reopened explicit path keeps the spool on disk.
        assert spool.is_dir()

    def test_open_missing_spool(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DiskStateStore.open(str(tmp_path / "nowhere"))


class TestSpillDeterminism:
    """Full builds through the store are bit-identical at every threshold."""

    @pytest.mark.parametrize("threshold", SPILL_THRESHOLDS, ids=["t0", "t1", "never"])
    @pytest.mark.parametrize("label,constructor", SPILL_WORKLOADS, ids=SPILL_WORKLOAD_IDS)
    def test_untimed_compiled(self, label, constructor, threshold):
        compiled, _reference = build_untimed_pair(constructor())
        spilled = build_untimed_spill(constructor(), spill_threshold=threshold)
        assert_untimed_graphs_identical(spilled, compiled)

    @pytest.mark.parametrize("threshold", SPILL_THRESHOLDS, ids=["t0", "t1", "never"])
    @pytest.mark.parametrize("label,constructor", SPILL_WORKLOADS, ids=SPILL_WORKLOAD_IDS)
    def test_untimed_batched(self, label, constructor, threshold):
        compiled, _reference = build_untimed_pair(constructor())
        spilled = build_untimed_spill(
            constructor(), engine="batched", spill_threshold=threshold
        )
        assert_untimed_graphs_identical(spilled, compiled)

    @pytest.mark.parametrize("threshold", SPILL_THRESHOLDS, ids=["t0", "t1", "never"])
    @pytest.mark.parametrize(
        "label,constructor", COVERABILITY_SPILL_WORKLOADS, ids=COVERABILITY_SPILL_IDS
    )
    def test_coverability(self, label, constructor, threshold):
        baseline = coverability_graph(constructor(), engine="compiled")
        spilled = build_coverability_spill(constructor(), spill_threshold=threshold)
        assert_coverability_graphs_identical(spilled, baseline)

    @pytest.mark.parametrize("threshold", SPILL_THRESHOLDS, ids=["t0", "t1", "never"])
    @pytest.mark.parametrize("label,constructor", SPILL_WORKLOADS, ids=SPILL_WORKLOAD_IDS)
    @pytest.mark.parametrize("engine", ["compiled", "batched"])
    def test_gspn(self, label, constructor, threshold, engine):
        compiled, _reference = build_gspn_pair(constructor())
        spilled = build_gspn_spill(
            constructor(), engine=engine, spill_threshold=threshold
        )
        assert_gspn_explorations_identical(spilled, compiled)

    def test_spill_telemetry_in_build_stats(self):
        graph = build_untimed_spill(sliding_window_net(3), spill_threshold=0)
        stats = graph.build_stats()
        assert stats.spilled_states == graph.state_count
        assert stats.spill_bytes > 0
        in_memory = reachability_graph(sliding_window_net(3))
        assert in_memory.build_stats().spilled_states == 0
        assert in_memory.build_stats().spill_bytes == 0

    def test_store_rejected_off_the_frontier_core(self):
        with pytest.raises(ValueError, match="frontier-core"):
            reachability_graph(token_ring_net(3), engine="reference", store="disk")
        with pytest.raises(ValueError, match="unknown engine 'parallel'"):
            reachability_graph(token_ring_net(3), engine="parallel", store="disk")


class TestQueries:
    """Early exit, witness paths, and definitive negatives."""

    def test_is_reachable_early_exit_under_spill(self):
        # The ISSUE acceptance check: on a workload whose full graph
        # exceeds the spill threshold, the query returns a correct witness
        # while exploring measurably fewer states than a full build.
        net = sliding_window_net(3)
        full = reachability_graph(net)
        threshold = 8
        assert full.state_count > threshold  # 64 markings
        target = full.markings[1]  # the first BFS discovery — depth 1
        result = is_reachable(net, target, store="disk", spill_threshold=threshold)
        assert result.found
        assert result.witness == target
        assert result.witness_depth == len(result.path) == 1
        assert result.states_explored < full.state_count // 2
        assert result.replay(sliding_window_net(3)) == target

    def test_find_deadlock_early_exit_under_spill(self):
        net = gated_toggle_net(8)
        full = reachability_graph(net)
        assert full.state_count == 2 ** 9  # live product + halted copies
        result = find_deadlock(net, store="disk", spill_threshold=16)
        assert result.found
        assert result.path == ("halt",)
        assert result.states_explored < full.state_count // 2
        replayed = result.replay(gated_toggle_net(8))
        assert replayed == result.witness
        assert not net.enabled_transitions(replayed)

    def test_unreachable_is_a_full_exploration(self):
        net = token_ring_net(5)
        full = reachability_graph(net)
        impossible = {"has_token_0": 1, "has_token_1": 1}
        result = is_reachable(net, impossible)
        assert not result.found
        assert result.witness is None
        assert result.witness_depth is None
        assert result.states_explored == full.state_count
        with pytest.raises(ValueError, match="no witness"):
            result.replay(net)

    def test_deadlock_free_net_is_a_full_exploration(self):
        net = token_ring_net(5)
        full = reachability_graph(net)
        result = find_deadlock(net)
        assert not result.found
        assert result.states_explored == full.state_count
        assert full.is_deadlock_free()

    def test_bound_check_both_verdicts(self):
        net = token_ring_net(4)
        violated = bound_check(net, "has_token_0", 0)
        assert violated.found
        assert violated.path == ()  # the initial marking already exceeds 0
        proven = bound_check(net, "has_token_0", 1)
        assert not proven.found
        assert proven.states_explored == reachability_graph(net).state_count
        with pytest.raises(ValueError, match="unknown place"):
            bound_check(net, "nonexistent", 1)

    def test_search_predicate(self):
        net = gated_toggle_net(4)
        result = search(net, lambda marking: marking["off_2"] > 0)
        assert result.found
        assert result.path == ("flip_off_2",)
        assert result.witness["off_2"] == 1

    def test_query_results_identical_with_and_without_spill(self):
        net = gated_toggle_net(6)
        in_memory = find_deadlock(net)
        spilled = find_deadlock(net, store="disk", spill_threshold=0)
        assert spilled.found == in_memory.found
        assert spilled.path == in_memory.path
        assert spilled.witness == in_memory.witness
        assert spilled.states_explored == in_memory.states_explored
        assert spilled.spill_bytes > 0 and in_memory.spill_bytes == 0

    def test_target_validation(self):
        net = token_ring_net(3)
        with pytest.raises(ValueError, match="unknown place"):
            is_reachable(net, {"not_a_place": 1})
        with pytest.raises(TypeError, match="Marking or a place->count"):
            is_reachable(net, [1, 0, 0])

    def test_symbolic_net_rejected(self):
        net, _constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(PerformanceError, match="numeric net"):
            find_deadlock(net)

    def test_max_states_valve(self):
        with pytest.raises(UnboundedNetError):
            is_reachable(simple_protocol_net(), {"p1": 999}, max_states=50)

    def test_as_dict(self):
        result = find_deadlock(gated_toggle_net(3))
        payload = result.as_dict()
        assert payload["found"] is True
        assert payload["witness_depth"] == 1
        assert payload["path"] == ["halt"]
        assert payload["states_explored"] == result.states_explored
        assert isinstance(result, QueryResult)


class TestQueryCli:
    """The ``query`` subcommand and the ``untimed`` store flags."""

    def test_query_deadlock_not_found(self, capsys):
        assert main(["query", "--model", "token-ring", "--deadlock"]) == 0
        output = capsys.readouterr().out
        assert "deadlock reachable?" in output
        assert "answer: no" in output

    def test_query_reachable_with_stats(self, capsys):
        spec = "has_token_1=1"
        for i in (0, 2):
            spec += f",has_token_{i}=0,passing_{i}=0"
        spec += ",passing_1=0"
        code = main(
            ["query", "--model", "token-ring", "--reachable", spec, "--stats"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "answer: yes" in output
        assert "path: " in output and " -> " in output
        assert "states explored" in output
        assert "witness depth" in output

    def test_query_bound_with_spill(self, capsys, tmp_path):
        code = main(
            [
                "query", "--model", "token-ring",
                "--bound", "has_token_0=0",
                "--store", "disk",
                "--spill-threshold", "0",
                "--store-dir", str(tmp_path / "spool"),
                "--stats",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "answer: yes" in output
        assert "(initial marking)" in output

    def test_query_argument_errors(self):
        with pytest.raises(SystemExit):
            main(["query", "--model", "token-ring", "--reachable", "garbage"])
        with pytest.raises(SystemExit):
            main(["query", "--model", "token-ring", "--bound", "a=1,b=2"])
        with pytest.raises(SystemExit):
            main(["query", "--model", "token-ring", "--deadlock", "--spill-threshold", "5"])

    def test_untimed_store_flags(self, capsys):
        code = main(
            [
                "untimed", "--model", "token-ring",
                "--engine", "batched",
                "--store", "disk",
                "--spill-threshold", "1",
                "--stats",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "spilled states" in output
        assert "spill bytes" in output
