"""Differential and regression tests for the compiled reachability engine.

The compiled engine (:mod:`repro.reachability.compiled`) must reproduce the
reference successor procedure **bit for bit**: same node order, same edge
order, same delays, probabilities, fired/completed transition labels and
used-constraint labels.  These tests enforce that equivalence on every
bundled workload, cover the ``engine`` selection knob, the ``max_states``
bound and the overlap policies, and pin down the hot-path bugfixes that
shipped with the engine (uniform zero-frequency fallback, lossless
``edge_table`` rendering, O(1) marking lookups).  The workload registry and
graph-equality assertions live in the shared harness :mod:`engine_diff`,
which the untimed/GSPN differential tests reuse.  The ``max_states`` valve
must fire at the same count in every engine of every graph family, and the
FIFO contract of the one frontier loop all compiled builders share
(:func:`repro.engine.frontier.explore`) is pinned on a toy kernel.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from engine_diff import (
    NUMERIC_WORKLOADS,
    SPILL_THRESHOLDS,
    TIMED_WORKLOADS,
    UNBOUNDED_UNTIMED,
    WORKLOAD_IDS,
    assert_timed_graphs_identical,
    build_symbolic_timed_pair,
    build_timed_pair,
)
from repro.engine import ENGINES, SCALAR_ENGINES, DiskStateStore, RunControl, explore
from repro.engine import faults
from repro.engine.faults import FaultPlan, InjectedFailure, SteppingClock
from repro.engine.frontier import untimed_limits
from repro.exceptions import MarkingError, SafenessViolationError, UnboundedNetError
from repro.petri import reachability_graph
from repro.petri.builder import NetBuilder
from repro.petri.marking import Marking
from repro.protocols import (
    go_back_n_net,
    simple_protocol_net,
    simple_protocol_symbolic,
    sliding_window_net,
    token_ring_net,
)
from repro.reachability import (
    OVERLAP_SKIP,
    CompiledSuccessorEngine,
    SuccessorGenerator,
    symbolic_timed_reachability_graph,
    timed_reachability_graph,
)
from repro.reachability.algebra import NumericProbabilityAlgebra, numeric_algebras
from repro.stochastic import GSPNAnalysis

BOUNDED_UNTIMED_IDS = [label for label in WORKLOAD_IDS if label not in UNBOUNDED_UNTIMED]
#: The lossy 20k-state sliding window is left to the differential gate.
VALVE_TIMED_WORKLOADS = [row for row in TIMED_WORKLOADS if row[0] != "sliding-window-3-lossy"]
#: GSPN valve rows: the timeout-racing paper protocol is truncated at two
#: tokens per place; the other rows are the bounded untimed workloads.
GSPN_VALVE_SETTINGS = {"paper-protocol": {"place_capacity": 2}}


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_numeric_workloads(self, label, constructor):
        compiled, reference = build_timed_pair(constructor(), max_states=20_000)
        assert_timed_graphs_identical(compiled, reference)

    def test_symbolic_paper_net_including_used_constraints(self):
        net, constraints, _symbols = simple_protocol_symbolic()
        compiled, reference = build_symbolic_timed_pair(net, constraints)
        assert_timed_graphs_identical(compiled, reference)
        # The Figure-7 bookkeeping must survive the compilation verbatim.
        assert compiled.used_constraint_labels() == reference.used_constraint_labels()
        assert compiled.constraint_usage() == reference.constraint_usage()
        assert any(compiled.used_constraint_labels())

    def test_compiled_is_the_default_engine(self):
        default = timed_reachability_graph(simple_protocol_net())
        explicit = timed_reachability_graph(simple_protocol_net(), engine="compiled")
        assert [n.state for n in default.nodes] == [n.state for n in explicit.nodes]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            timed_reachability_graph(simple_protocol_net(), engine="turbo")
        net, constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(ValueError, match="unknown engine"):
            symbolic_timed_reachability_graph(net, constraints, engine="turbo")


def overlapping_net():
    """A net where a transition becomes firable while it is already firing.

    ``t_long`` starts a 3-tick firing; ``t_feed`` completes after 1 tick and
    re-marks ``t_long``'s input place, so ``t_long`` is enabled again while
    its own firing is still in progress — the situation the paper's model
    restriction rules out.
    """
    builder = NetBuilder("overlap")
    builder.place("a", tokens=1)
    builder.place("c", tokens=1)
    builder.transition("t_long", inputs=["a"], outputs=[], firing_time=3)
    builder.transition("t_feed", inputs=["c"], outputs=["a"], firing_time=1)
    return builder.build()


class TestOverlapPolicies:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_overlap_error_raises(self, engine):
        with pytest.raises(SafenessViolationError, match="already firing"):
            timed_reachability_graph(overlapping_net(), engine=engine)

    def test_overlap_skip_graphs_identical(self):
        compiled, reference = build_timed_pair(overlapping_net(), overlap_policy=OVERLAP_SKIP)
        assert_timed_graphs_identical(compiled, reference)
        # The skipped overlap means the long transition simply keeps firing.
        assert compiled.state_count > 1


class TestMaxStatesBound:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_raises_exactly_at_the_limit(self, engine):
        net = token_ring_net(3)
        exact = timed_reachability_graph(net, engine=engine).state_count
        assert exact == 12
        # The full graph fits exactly: no error at the true size...
        graph = timed_reachability_graph(net, max_states=exact, engine=engine)
        assert graph.state_count == exact
        # ...and one state less trips the bound.
        with pytest.raises(UnboundedNetError, match=str(exact - 1)):
            timed_reachability_graph(net, max_states=exact - 1, engine=engine)

    @pytest.mark.parametrize("engine", SCALAR_ENGINES)
    @pytest.mark.parametrize(
        "label,constructor", VALVE_TIMED_WORKLOADS, ids=[row[0] for row in VALVE_TIMED_WORKLOADS]
    )
    def test_timed_workload_fits_exactly(self, label, constructor, engine):
        net = constructor()
        exact = timed_reachability_graph(net).state_count
        assert timed_reachability_graph(net, max_states=exact, engine=engine).state_count == exact
        with pytest.raises(UnboundedNetError, match=f"graph exceeded {exact - 1} states"):
            timed_reachability_graph(net, max_states=exact - 1, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("label", BOUNDED_UNTIMED_IDS)
    def test_untimed_workload_fits_exactly(self, label, engine):
        net = dict(NUMERIC_WORKLOADS)[label]()
        exact = reachability_graph(net).state_count
        assert reachability_graph(net, max_states=exact, engine=engine).state_count == exact
        with pytest.raises(UnboundedNetError, match=f"exceeded {exact - 1} markings"):
            reachability_graph(net, max_states=exact - 1, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("label", ["paper-protocol"] + BOUNDED_UNTIMED_IDS)
    def test_gspn_workload_fits_exactly(self, label, engine):
        net = dict(NUMERIC_WORKLOADS)[label]()
        settings = GSPN_VALVE_SETTINGS.get(label, {})
        exact = len(GSPNAnalysis(net, **settings)._explore()[0])
        markings = GSPNAnalysis(net, max_states=exact, engine=engine, **settings)._explore()[0]
        assert len(markings) == exact
        with pytest.raises(UnboundedNetError, match=f"graph exceeded {exact - 1} markings"):
            GSPNAnalysis(net, max_states=exact - 1, engine=engine, **settings)._explore()


class _AllZeroProbabilities(NumericProbabilityAlgebra):
    """Probability algebra whose branch probabilities are always zero.

    Models a (possibly user-supplied) algebra that returns raw, unfiltered
    probability maps — the degenerate case the fire step's fallback guards.
    """

    def branch_probabilities(self, conflict_set, firable):
        return {name: Fraction(0) for name in firable}


def two_way_choice_net():
    builder = NetBuilder("choice")
    builder.place("p", tokens=1)
    builder.transition("a", inputs=["p"], outputs=[], firing_time=1, frequency=1)
    builder.transition("b", inputs=["p"], outputs=[], firing_time=2, frequency=1)
    return builder.build()


class TestUniformZeroFrequencyFallback:
    """Regression: the all-zero fallback must be genuinely uniform.

    It used to give the whole probability mass to the first firable member;
    now every firable member gets its own edge with probability ``1/n``.
    """

    def test_reference_generator_splits_uniformly(self):
        net = two_way_choice_net()
        time_algebra, _ = numeric_algebras()
        generator = SuccessorGenerator(net, time_algebra, _AllZeroProbabilities())
        edges = generator.successors(generator.initial_state())
        assert [(edge.fired, edge.probability) for edge in edges] == [
            (("a",), Fraction(1, 2)),
            (("b",), Fraction(1, 2)),
        ]

    def test_compiled_engine_splits_uniformly(self):
        net = two_way_choice_net()
        time_algebra, _ = numeric_algebras()
        engine = CompiledSuccessorEngine(net, time_algebra, _AllZeroProbabilities())
        edges = engine.successors(engine.initial_state())
        assert [(edge.fired, edge.probability) for edge in edges] == [
            (("a",), Fraction(1, 2)),
            (("b",), Fraction(1, 2)),
        ]


def fire_and_complete_net():
    """A selector that starts a timed firing and completes an instantaneous one."""
    builder = NetBuilder("fire-and-complete")
    builder.place("a", tokens=1)
    builder.place("c", tokens=1)
    builder.transition("t1", inputs=["a"], outputs=["b"], firing_time=2)
    builder.transition("t2", inputs=["c"], outputs=["d"], firing_time=0)
    return builder.build()


class TestEdgeTableRendering:
    """Regression: fire edges used to drop their ``!completed`` suffix."""

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_fire_edge_renders_completions(self, engine):
        graph = timed_reachability_graph(fire_and_complete_net(), engine=engine)
        actions = [row[4] for row in graph.edge_table()]
        assert "t1+t2!t2" in actions

    def test_advance_edge_still_renders_completions(self):
        graph = timed_reachability_graph(fire_and_complete_net())
        actions = [row[4] for row in graph.edge_table()]
        assert "!t1" in actions


class TestMarkingLookup:
    """Regression companions for the O(1) ``Marking.__getitem__``."""

    def test_known_place_lookup(self):
        marking = Marking(("p1", "p2", "p3"), {"p2": 2})
        assert marking["p1"] == 0
        assert marking["p2"] == 2

    def test_unknown_place_still_raises(self):
        marking = Marking(("p1", "p2"), {"p1": 1})
        with pytest.raises(MarkingError, match="unknown place"):
            marking["p9"]

    def test_add_rejects_unknown_places(self):
        marking = Marking(("p1",), {"p1": 1})
        from repro.petri.multiset import Multiset

        with pytest.raises(MarkingError, match="unknown place"):
            marking.add(Multiset(["zz"]))

    def test_trusted_constructor_matches_validated(self):
        order = ("p1", "p2")
        trusted = Marking._trusted(order, frozenset(order), {"p2": 1})
        assert trusted == Marking(order, {"p2": 1})
        assert hash(trusted) == hash(Marking(order, {"p2": 1}))
        assert trusted["p1"] == 0 and trusted["p2"] == 1


class TestWindowWorkloads:
    def test_sliding_window_grows_with_window(self):
        small = timed_reachability_graph(sliding_window_net(1))
        large = timed_reachability_graph(sliding_window_net(3))
        assert large.state_count > small.state_count
        assert not large.dead_nodes()

    def test_go_back_n_sends_in_order(self):
        graph = timed_reachability_graph(go_back_n_net(2))
        fired = [edge.fired for edge in graph.edges if edge.fired]
        sends = [
            [name for name in names if name.endswith("_send")]
            for names in fired
            if any(name.endswith("_send") for name in names)
        ]
        # The send-turn token serializes transmissions: the very first send
        # is slot 0's, and no selector ever starts two sends at once.
        assert sends and sends[0] == ["g0_send"]
        assert all(len(names) == 1 for names in sends)
        # Without loss the windowed pipeline is fully deterministic.
        assert not graph.decision_nodes()

    def test_lossy_windows_have_decision_states(self):
        graph = timed_reachability_graph(sliding_window_net(2, loss_probability=Fraction(1, 10)))
        assert graph.decision_nodes()
        graph = timed_reachability_graph(go_back_n_net(2, loss_probability=Fraction(1, 10)))
        assert graph.decision_nodes()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sliding_window_net(0)
        with pytest.raises(ValueError):
            go_back_n_net(0)
        with pytest.raises(ValueError):
            sliding_window_net(2, loss_probability=2)
        with pytest.raises(ValueError):
            go_back_n_net(2, loss_probability=-1)


class SkipRing:
    """Toy frontier kernel: item ``k`` of a ring of ``size`` reaches ``k + 1``
    and then ``k + 2`` (mod ``size``), so items intern as ``0..size-1`` and
    :meth:`edges` is the exact FIFO edge sequence."""

    def __init__(self, size: int):
        self.size = size

    def seed(self):
        return 0

    def expand(self, index, item):
        for step in (1, 2):
            yield (item, step), (item + step) % self.size

    def edges(self, items=None):
        """``(source, target, data)`` of the first ``items`` expansions."""
        return [
            (item, (item + step) % self.size, (item, step))
            for item in range(self.size if items is None else items)
            for step in (1, 2)
        ]


class Recorder:
    """:func:`explore` callbacks recording the interned items and reported
    edges (interning through ``store`` when given, as the store-backed
    builders do), so both survive an exception out of the loop."""

    def __init__(self, store=None):
        self.store, self.index_of, self.order, self.edges = store, {}, [], []

    def intern(self, item, _parent_index):
        if self.store is not None:
            index, is_new = self.store.intern(item)
        else:
            is_new = item not in self.index_of
            index = self.index_of.setdefault(item, len(self.index_of))
        if is_new:
            self.order.append(item)
        return index, is_new

    def run(self, kernel, max_states=1_000, **kwargs):
        on_edge = lambda *edge: self.edges.append(edge)  # noqa: E731
        limits = untimed_limits(max_states)
        return explore(kernel, self.intern, on_edge, limits, store=self.store, **kwargs)


class TestExploreContract:
    """The FIFO contract of the one frontier loop (:func:`explore`)."""

    def test_fifo_interning_and_edge_order(self):
        recorder = Recorder()
        recorder.run(SkipRing(6))
        assert (recorder.order, recorder.edges) == (list(range(6)), SkipRing(6).edges())

    def test_stats_counters(self):
        stats = Recorder().run(SkipRing(6))
        assert (stats.engine, stats.states, stats.edges) == ("scalar", 6, 12)
        assert stats.expanded == stats.batches == 6
        assert stats.dedup_hits == 7  # twelve candidates, five of them new
        assert (stats.interrupted_at, stats.interrupt_reason) == (None, None)
        assert stats.spilled_states == stats.spill_bytes == 0

    def test_valve_fires_after_the_crossing_edge(self):
        recorder = Recorder()
        with pytest.raises(UnboundedNetError, match="exceeded 3 markings"):
            recorder.run(SkipRing(6), max_states=3)
        # Item 1's second edge finds the fourth state; it is still reported.
        assert (recorder.order, recorder.edges) == ([0, 1, 2, 3], SkipRing(6).edges()[:4])

    def test_stop_on_the_seed_expands_nothing(self):
        recorder = Recorder()
        stats = recorder.run(SkipRing(6), stop=lambda index, item: True)
        assert (recorder.order, recorder.edges, stats.expanded) == ([0], [], 0)

    def test_stop_ends_the_run_at_the_first_witness(self):
        recorder, tested = Recorder(), []
        stats = recorder.run(
            SkipRing(6), stop=lambda index, item: tested.append(index) or item == 3
        )
        # Each new state is tested once, right after its discovering edge.
        assert tested == [0, 1, 2, 3]
        assert (recorder.edges, stats.states, stats.expanded) == (SkipRing(6).edges(2), 4, 2)

    @pytest.mark.parametrize("threshold", SPILL_THRESHOLDS, ids=["t0", "t1", "never"])
    def test_store_backed_run_matches_the_in_memory_run(self, threshold):
        memory = Recorder()
        expected = memory.run(SkipRing(40))
        with DiskStateStore(spill_threshold=threshold) as store:
            stored = Recorder(store)
            stats = stored.run(SkipRing(40))
            assert [store.item_at(index) for index in range(40)] == memory.order
        assert (stored.order, stored.edges) == (memory.order, memory.edges)
        assert (stats.states, stats.dedup_hits) == (expected.states, expected.dedup_hits)
        assert (stats.spilled_states > 0) == (threshold is not None)

    def test_deadline_stops_at_an_item_boundary(self):
        recorder = Recorder()
        # The stepping clock expires at the third per-expansion check.
        stats = recorder.run(SkipRing(6), control=RunControl(deadline=3.0, clock=SteppingClock()))
        assert (stats.interrupt_reason, stats.interrupted_at) == ("deadline", 2)
        assert recorder.edges == SkipRing(6).edges(2)

    def test_cancellation_stops_before_the_next_expansion(self):
        recorder, control = Recorder(), RunControl()
        control.cancel("stop requested")
        stats = recorder.run(SkipRing(6), control=control)
        assert (stats.interrupt_reason, stats.interrupted_at) == ("stop requested", 0)
        assert (recorder.order, recorder.edges) == ([0], [])

    def test_resume_from_the_interrupted_cursor_completes_the_run(self):
        with DiskStateStore(spill_threshold=0) as store:
            recorder = Recorder(store)
            control = RunControl(deadline=4.0, clock=SteppingClock())
            cursor = recorder.run(SkipRing(12), control=control).interrupted_at
            assert 0 < cursor < 12
            rest = recorder.run(SkipRing(12), control=RunControl(), start_cursor=cursor)
        assert (rest.interrupted_at, rest.expanded) == (None, 12 - cursor)
        assert (recorder.order, recorder.edges) == (list(range(12)), SkipRing(12).edges())

    def test_periodic_checkpoints_precede_the_due_expansion(self, tmp_path):
        recorder, due = Recorder(), []
        recorder.run(
            SkipRing(6),
            control=RunControl(checkpoint_every=2, checkpoint_dir=str(tmp_path)),
            checkpoint=lambda cursor: due.append((cursor, len(recorder.edges))),
        )
        assert due == [(2, 4), (4, 8)]  # items before the cursor fully reported

    def test_injected_crash_precedes_the_scheduled_expansion(self):
        recorder = Recorder()
        with faults.inject(FaultPlan(crash_at_expansion=3)):
            with pytest.raises(InjectedFailure, match="expansion 3"):
                recorder.run(SkipRing(6))
        assert recorder.edges == SkipRing(6).edges(3)
