"""Differential smoke gate: every compiled builder vs its other engines.

Runs every bundled workload (numeric and symbolic) through all four graph
families — timed reachability, untimed reachability, Karp–Miller
coverability and the GSPN marking graph — with ``engine="compiled"`` and
``engine="reference"`` and asserts the graphs are bit-identical via the
shared harness in :mod:`engine_diff`.  The untimed and GSPN families also
run through the third engine value, ``engine="batched"`` (the numpy
level-batched kernel), held to the same standard.  Workloads that are
unbounded under a semantics must fail identically through every engine.

CI runs this module (plus the randomized companion
``test_engine_random.py``) as a named differential gate.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from engine_diff import (
    NUMERIC_WORKLOADS,
    TIMED_WORKLOAD_IDS,
    TIMED_WORKLOADS,
    UNBOUNDED_UNTIMED,
    WORKLOAD_IDS,
    assert_coverability_graphs_identical,
    assert_gspn_explorations_identical,
    assert_gspn_results_identical,
    assert_timed_graphs_identical,
    assert_untimed_graphs_identical,
    build_coverability_pair,
    build_gspn_batched,
    build_gspn_pair,
    build_symbolic_timed_pair,
    build_timed_pair,
    build_untimed_batched,
    build_untimed_pair,
    symbolic_workload,
)
from repro.exceptions import UnboundedNetError
from repro.petri import coverability_graph, reachability_graph
from repro.protocols import go_back_n_net, simple_protocol_net, sliding_window_net
from repro.reachability import timed_reachability_graph
from repro.stochastic import GSPNAnalysis

#: Per-workload GSPN settings: the timeout-racing protocol nets are
#: unbounded under exponential delays without truncation.
GSPN_SETTINGS = {
    "paper-protocol": {"place_capacity": 2},
    "alternating-bit": None,  # unbounded even truncated at 2 tokens/place
    "pipelined-stop-and-wait": {"place_capacity": 2, "solve": False},  # big CTMC; diff the exploration
}

#: Coverability rows: every numeric workload plus lossy go-back-N with three
#: frames, whose serialized sends make the exploration deep relative to its
#: width — the shape the compiled builder's parent-index chain (which
#: rebuilds each work vector's ancestor chain for the acceleration rule)
#: must get right.
COVERABILITY_WORKLOADS = NUMERIC_WORKLOADS + [
    ("go-back-n-3-lossy", lambda: go_back_n_net(3, loss_probability=Fraction(1, 10))),
]
COVERABILITY_WORKLOAD_IDS = [label for label, _constructor in COVERABILITY_WORKLOADS]


class TestTimedDifferential:
    """The timed construction, re-checked here so the gate covers all four families."""

    @pytest.mark.parametrize("label,constructor", TIMED_WORKLOADS, ids=TIMED_WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        compiled, reference = build_timed_pair(constructor())
        assert_timed_graphs_identical(compiled, reference)

    def test_symbolic_paper_net(self):
        net, constraints = symbolic_workload()
        compiled, reference = build_symbolic_timed_pair(net, constraints)
        assert_timed_graphs_identical(compiled, reference)
        assert compiled.constraint_usage() == reference.constraint_usage()

    def test_timed_max_states_fails_identically(self):
        net = simple_protocol_net()
        for engine in ("reference", "compiled"):
            with pytest.raises(UnboundedNetError, match="timed reachability graph exceeded 5 "):
                timed_reachability_graph(net, max_states=5, engine=engine)


class TestUntimedReachabilityDifferential:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        net = constructor()
        if label in UNBOUNDED_UNTIMED:
            for engine in ("compiled", "reference"):
                with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
                    reachability_graph(net, max_states=500, engine=engine)
        else:
            compiled, reference = build_untimed_pair(net, max_states=30_000)
            assert_untimed_graphs_identical(compiled, reference)

    def test_symbolic_net_fails_identically(self):
        # The untimed rule ignores timing, so the symbolic paper net runs
        # through both engines — and is unbounded exactly like the numeric one.
        net, _constraints = symbolic_workload()
        for engine in ("compiled", "reference"):
            with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
                reachability_graph(net, max_states=500, engine=engine)

    def test_compiled_is_the_default_engine(self):
        net = sliding_window_net(2)
        default = reachability_graph(net)
        explicit = reachability_graph(net, engine="compiled")
        assert_untimed_graphs_identical(default, explicit)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            reachability_graph(sliding_window_net(2), engine="turbo")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: reachability_graph(sliding_window_net(2), engine="parallel"),
            lambda: coverability_graph(simple_protocol_net(), engine="parallel"),
            lambda: timed_reachability_graph(simple_protocol_net(), engine="parallel"),
            lambda: GSPNAnalysis(simple_protocol_net(), engine="parallel"),
        ],
        ids=["untimed", "coverability", "timed", "gspn"],
    )
    def test_parallel_is_an_unknown_engine(self, build):
        with pytest.raises(
            ValueError,
            match="unknown engine 'parallel'; expected one of "
            "'compiled', 'reference', 'batched'",
        ):
            build()


class TestCoverabilityDifferential:
    @pytest.mark.parametrize(
        "label,constructor", COVERABILITY_WORKLOADS, ids=COVERABILITY_WORKLOAD_IDS
    )
    def test_workload(self, label, constructor):
        compiled, reference = build_coverability_pair(constructor(), max_nodes=20_000)
        assert_coverability_graphs_identical(compiled, reference)
        # The unbounded untimed workloads are exactly the ones Karp–Miller
        # must flag with an ω component.
        assert compiled.is_bounded() == (label not in UNBOUNDED_UNTIMED)

    def test_symbolic_net(self):
        net, _constraints = symbolic_workload()
        compiled, reference = build_coverability_pair(net)
        assert_coverability_graphs_identical(compiled, reference)
        assert not compiled.is_bounded()

    def test_max_nodes_fails_identically(self):
        net = simple_protocol_net()
        for engine in ("compiled", "reference"):
            with pytest.raises(UnboundedNetError, match="coverability construction exceeded"):
                coverability_graph(net, max_nodes=5, engine=engine)

    def test_compiled_is_the_default_engine(self):
        default = coverability_graph(simple_protocol_net())
        explicit = coverability_graph(simple_protocol_net(), engine="compiled")
        assert_coverability_graphs_identical(default, explicit)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            coverability_graph(simple_protocol_net(), engine="turbo")


class TestBatchedDifferential:
    """The numpy level-batched kernel vs the reference engine.

    The batched kernel expands whole frontier levels through one
    ``(frontier × transitions)`` enabledness mask and deduplicates
    successors with packed integer keys; the FIFO renumbering of its
    discoveries must still match the one-marking-at-a-time loops bit for
    bit — including *where* the ``max_states`` valve fires on unbounded
    workloads (the token-growth path that forces key repacks).
    """

    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_untimed_workload(self, label, constructor):
        net = constructor()
        if label in UNBOUNDED_UNTIMED:
            with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
                build_untimed_batched(net, max_states=500)
        else:
            batched = build_untimed_batched(net, max_states=30_000)
            _compiled, reference = build_untimed_pair(net, max_states=30_000)
            assert_untimed_graphs_identical(batched, reference)

    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_gspn_workload(self, label, constructor):
        net = constructor()
        settings = GSPN_SETTINGS.get(label, {})
        if settings is None:
            with pytest.raises(UnboundedNetError, match="GSPN marking graph exceeded"):
                build_gspn_batched(net, max_states=500, place_capacity=2)._explore()
            return
        settings = dict(settings)
        solve = settings.pop("solve", True)
        batched = build_gspn_batched(net, **settings)
        reference = GSPNAnalysis(net, engine="reference", **settings)
        assert_gspn_explorations_identical(batched, reference)
        if solve:
            assert_gspn_results_identical(batched.solve(), reference.solve())

    def test_symbolic_net_fails_identically(self):
        # The untimed rule ignores timing, so the symbolic paper net runs
        # through the batched kernel too — and is unbounded just like the
        # numeric one.
        net, _constraints = symbolic_workload()
        with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
            build_untimed_batched(net, max_states=500)

    def test_build_stats_surface(self):
        net = sliding_window_net(2)
        batched = build_untimed_batched(net)
        compiled, _reference = build_untimed_pair(net)
        batched_stats = batched.build_stats()
        compiled_stats = compiled.build_stats()
        assert batched_stats.engine == "batched"
        assert compiled_stats.engine == "compiled"
        # Same graph, same totals — only the batching shape differs.
        assert batched_stats.states == compiled_stats.states == batched.state_count
        assert batched_stats.edges == compiled_stats.edges == batched.edge_count
        assert batched_stats.dedup_hits == compiled_stats.dedup_hits
        assert batched_stats.batches < batched_stats.states
        assert batched_stats.mean_batch_width > 1.0
        assert compiled_stats.mean_batch_width == 1.0
        assert batched_stats.states_per_second > 0
        assert set(batched_stats.as_dict()) == set(compiled_stats.as_dict())
        # The reference engine records no stats.
        assert reachability_graph(net, engine="reference").build_stats() is None

    def test_timed_builders_reject_batched(self):
        with pytest.raises(ValueError, match="not supported by this builder"):
            timed_reachability_graph(simple_protocol_net(), engine="batched")
        net, constraints = symbolic_workload()
        from repro.reachability import symbolic_timed_reachability_graph

        with pytest.raises(ValueError, match="not supported by this builder"):
            symbolic_timed_reachability_graph(net, constraints, engine="batched")

    def test_coverability_rejects_batched(self):
        with pytest.raises(ValueError, match="not supported by this builder"):
            coverability_graph(simple_protocol_net(), engine="batched")


class TestGSPNDifferential:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        net = constructor()
        settings = GSPN_SETTINGS.get(label, {})
        if settings is None:
            for engine in ("compiled", "reference"):
                with pytest.raises(UnboundedNetError, match="GSPN marking graph exceeded"):
                    GSPNAnalysis(net, max_states=500, place_capacity=2, engine=engine)._explore()
            return
        settings = dict(settings)
        solve = settings.pop("solve", True)
        compiled, reference = build_gspn_pair(net, **settings)
        assert_gspn_explorations_identical(compiled, reference)
        if solve:
            assert_gspn_results_identical(compiled.solve(), reference.solve())

    def test_compiled_is_the_default_engine(self):
        default = GSPNAnalysis(simple_protocol_net(), place_capacity=2)
        explicit = GSPNAnalysis(simple_protocol_net(), place_capacity=2, engine="compiled")
        assert default.engine == "compiled"
        assert_gspn_explorations_identical(default, explicit)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            GSPNAnalysis(simple_protocol_net(), engine="turbo")

    def test_explicit_rates_respected_by_both_engines(self):
        net = simple_protocol_net()
        compiled, reference = build_gspn_pair(
            net, place_capacity=2, rates={"t2": 0.5}
        )
        assert_gspn_explorations_identical(compiled, reference)
        assert_gspn_results_identical(compiled.solve(), reference.solve())
