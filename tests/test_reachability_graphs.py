"""Tests for timed reachability graphs, symbolic graphs and decision graphs.

These are the Figure-4/5/6/7 reproduction tests: state counts, RET milestones,
decision-edge delays and probabilities, and the constraint-usage log are all
asserted against the paper's numbers.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.exceptions import NotErgodicError, UnboundedNetError
from repro.petri import NetBuilder
from repro.protocols import (
    PAPER_DECISION_DELAYS,
    PAPER_RET_MILESTONES,
    PAPER_STATE_COUNT,
    simple_protocol_net,
    simple_protocol_symbolic,
    token_ring_net,
)
from repro.reachability import (
    decision_graph,
    firing_count_vector,
    is_strongly_connected,
    recurrent_states,
    summarize,
    symbolic_timed_reachability_graph,
    tangible_states,
    timed_reachability_graph,
    vanishing_states,
)
from repro.symbolic import evaluate_value


class TestNumericReachabilityGraph:
    def test_figure4_state_count(self, paper_trg):
        assert paper_trg.state_count == PAPER_STATE_COUNT

    def test_two_decision_nodes(self, paper_trg):
        assert len(paper_trg.decision_nodes()) == 2

    def test_no_dead_states(self, paper_trg):
        assert paper_trg.dead_nodes() == []

    def test_strongly_connected(self, paper_trg):
        assert is_strongly_connected(paper_trg)
        assert recurrent_states(paper_trg) == tuple(range(paper_trg.state_count))

    def test_ret_milestones_of_figure_4b(self, paper_trg):
        observed = set()
        for node in paper_trg.nodes:
            observed.update(node.state.remaining_enabling.values())
        for milestone in PAPER_RET_MILESTONES:
            assert milestone in observed

    def test_every_transition_fires_somewhere(self, paper_trg, paper_net):
        assert paper_trg.transitions_started() == frozenset(paper_net.transition_order)

    def test_edge_delays_and_probabilities_are_consistent(self, paper_trg):
        for edge in paper_trg.edges:
            if edge.kind == "fire":
                assert edge.delay == 0
                assert 0 < edge.probability <= 1
            else:
                assert edge.delay > 0
                assert edge.probability == 1

    def test_fire_edges_against_advance_edges(self, paper_trg):
        assert len(paper_trg.fire_edges()) + len(paper_trg.advance_edges()) == paper_trg.edge_count

    def test_vanishing_tangible_partition(self, paper_trg):
        vanishing = set(vanishing_states(paper_trg))
        tangible = set(tangible_states(paper_trg))
        assert vanishing | tangible == set(range(paper_trg.state_count))
        assert not vanishing & tangible
        assert paper_trg.initial_index in vanishing  # t1 fires immediately

    def test_state_table_shape(self, paper_trg, paper_net):
        table = paper_trg.state_table()
        assert len(table) == PAPER_STATE_COUNT
        expected_width = 1 + len(paper_net.place_order) + 2 * len(paper_net.transition_order)
        assert all(len(row) == expected_width for row in table)
        assert len(paper_trg.state_table_header()) == expected_width

    def test_edge_table_rows(self, paper_trg):
        assert len(paper_trg.edge_table()) == paper_trg.edge_count

    def test_networkx_export(self, paper_trg):
        graph = paper_trg.to_networkx()
        assert graph.number_of_nodes() == paper_trg.state_count
        assert graph.number_of_edges() == paper_trg.edge_count

    def test_max_states_guard(self, paper_net):
        with pytest.raises(UnboundedNetError):
            timed_reachability_graph(paper_net, max_states=5)

    def test_symbolic_net_rejected_by_numeric_builder(self, symbolic_protocol):
        net, _constraints, _symbols = symbolic_protocol
        with pytest.raises(ValueError):
            timed_reachability_graph(net)

    def test_markings_stay_safe(self, paper_trg):
        # the paper's restriction: the timed behaviour keeps the net 1-safe
        for node in paper_trg.nodes:
            assert node.state.marking.is_safe()

    def test_cycle_firing_counts_are_transition_invariants(self, paper_trg, paper_net):
        from repro.petri import transition_invariants

        decision = decision_graph(paper_trg)
        invariant_supports = {frozenset(inv.support) for inv in transition_invariants(paper_net)}
        # Every decision edge that returns to its own source is a cycle; its
        # firing-count vector must be a T-invariant of the net.
        for edge in decision.edges:
            if edge.target == edge.source:
                counts = firing_count_vector(paper_trg, edge.trg_edges)
                support = frozenset(name for name, count in counts.items() if count)
                assert support in invariant_supports

    def test_summary_dataclass(self, paper_trg):
        summary = summarize(paper_trg)
        assert summary.state_count == PAPER_STATE_COUNT
        assert summary.strongly_connected
        assert len(summary.decision_states) == 2
        assert not summary.dead_states


class TestDecisionGraphNumeric:
    def test_figure5_shape(self, paper_decision):
        assert paper_decision.anchor_count == 2
        assert paper_decision.edge_count == 4
        assert not paper_decision.has_absorbing_edge()

    def test_figure5_delays(self, paper_decision):
        delays = sorted(edge.delay for edge in paper_decision.edges)
        expected = sorted(PAPER_DECISION_DELAYS.values())
        assert delays == expected

    def test_figure5_probabilities(self, paper_decision):
        for anchor in paper_decision.anchors:
            outgoing = paper_decision.outgoing(anchor)
            assert sum(edge.probability for edge in outgoing) == 1
            assert sorted(edge.probability for edge in outgoing) == [Fraction(1, 20), Fraction(19, 20)]

    def test_loss_edge_is_a_self_loop(self, paper_decision):
        loss_edges = [e for e in paper_decision.edges if e.delay == Fraction(1002)]
        assert len(loss_edges) == 1
        assert loss_edges[0].source == loss_edges[0].target
        assert "t5" in loss_edges[0].fired

    def test_success_edge_fires_the_ack_accept_transition(self, paper_decision):
        success = [e for e in paper_decision.edges if e.delay == Fraction("122.2")]
        assert len(success) == 1
        assert "t2" in success[0].fired and "t7" in success[0].fired

    def test_busy_time_accounting(self, paper_decision):
        packet_edge = [e for e in paper_decision.edges if e.delay == Fraction("120.2")][0]
        # along the successful-packet edge, t4 fires for 106.7 ms and t6 for 13.5 ms
        assert paper_decision.busy_time(packet_edge, "t4") == Fraction("106.7")
        assert paper_decision.busy_time(packet_edge, "t6") == Fraction("13.5")
        assert paper_decision.busy_time(packet_edge, "t9") == 0

    def test_edges_firing_lookup(self, paper_decision):
        assert len(paper_decision.edges_firing("t1")) == 3  # every edge except packet-success
        assert len(paper_decision.edges_firing("t2")) == 1

    def test_edge_table(self, paper_decision):
        rows = paper_decision.edge_table()
        assert len(rows) == 4
        assert {row[0] for row in rows} == {"a1", "a2", "a3", "a4"}

    def test_decision_graph_of_deterministic_net_uses_fallback_anchor(self):
        ring = token_ring_net(3)
        graph = decision_graph(timed_reachability_graph(ring))
        assert graph.anchor_count == 1
        assert graph.edge_count == 1
        [edge] = graph.edges
        assert edge.source == edge.target
        assert edge.probability == 1
        assert edge.delay == Fraction(36)  # 3 * (10 + 2)

    def test_absorbing_decision_graph(self):
        builder = NetBuilder("absorbing")
        builder.transition("step", inputs=["p"], outputs=["q"], firing_time=1)
        builder.mark("p")
        graph = decision_graph(timed_reachability_graph(builder.build()))
        assert graph.has_absorbing_edge()
        with pytest.raises(NotErgodicError):
            from repro.performance import traversal_rates

            traversal_rates(graph)


class TestSymbolicReachabilityGraph:
    def test_figure6_state_count(self, symbolic_analysis):
        assert symbolic_analysis.reachability.state_count == PAPER_STATE_COUNT

    def test_symbolic_and_numeric_graphs_have_equal_shape(self, symbolic_analysis, paper_trg):
        symbolic = symbolic_analysis.reachability
        assert symbolic.edge_count == paper_trg.edge_count
        assert len(symbolic.decision_nodes()) == len(paper_trg.decision_nodes())

    def test_figure7_constraint_usage(self):
        net, constraints, _symbols = simple_protocol_symbolic(apply_equal_loss_delays=False)
        trg = symbolic_timed_reachability_graph(net, constraints)
        usage = trg.constraint_usage()
        assert len(usage) == 5  # the five multi-clock states of Figure 7
        used_sets = sorted(frozenset(used) for _, _, used in usage)
        assert used_sets.count(frozenset({"1"})) == 3
        assert frozenset({"1", "3"}) in used_sets
        assert frozenset({"1", "4"}) in used_sets
        assert trg.used_constraint_labels() == ("1", "3", "4")

    def test_symbolic_edges_specialize_to_numeric_delays(self, symbolic_analysis, paper_trg, paper_parameter_bindings):
        symbolic_delays = sorted(
            float(evaluate_value(edge.delay, paper_parameter_bindings))
            for edge in symbolic_analysis.reachability.advance_edges()
        )
        numeric_delays = sorted(float(edge.delay) for edge in paper_trg.advance_edges())
        assert symbolic_delays == pytest.approx(numeric_delays)

    def test_insufficient_constraints_are_reported(self):
        from repro.exceptions import InsufficientConstraintsError
        from repro.symbolic import ConstraintSet

        net, _constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(InsufficientConstraintsError):
            symbolic_timed_reachability_graph(net, ConstraintSet([]))

    def test_unordered_timers_raise_typed_error_in_compiled_engine(self):
        # Two concurrent symbolic timers with no ordering constraint: the
        # compiled engine's comparator failure must surface with its
        # original type, exactly like the reference engine's.
        from repro.exceptions import InsufficientConstraintsError
        from repro.symbolic import time_symbol

        builder = NetBuilder("unordered-timers")
        builder.place("p1", "timer 1 armed", tokens=1)
        builder.place("p2", "timer 2 armed", tokens=1)
        builder.transition("t1", inputs=["p1"], outputs=[], firing_time=time_symbol("A"))
        builder.transition("t2", inputs=["p2"], outputs=[], firing_time=time_symbol("B"))
        net = builder.build()
        with pytest.raises(InsufficientConstraintsError):
            symbolic_timed_reachability_graph(net, (), engine="compiled")

    def test_inconsistent_constraints_are_rejected(self):
        from repro.exceptions import InconsistentConstraintsError
        from repro.symbolic import Constraint, ConstraintSet, LinExpr

        net, _constraints, symbols = simple_protocol_symbolic()
        bad = ConstraintSet(
            [
                Constraint.greater(symbols["E3"], symbols["F4"]),
                Constraint.greater(symbols["F4"], symbols["E3"]),
            ]
        )
        with pytest.raises(InconsistentConstraintsError):
            symbolic_timed_reachability_graph(net, bad)

    def test_symbolic_decision_graph_probabilities_sum_to_one(self, symbolic_analysis):
        decision = symbolic_analysis.decision
        from repro.symbolic import RatFunc

        for anchor in decision.anchors:
            total = RatFunc.zero()
            for edge in decision.outgoing(anchor):
                total = total + RatFunc.coerce(edge.probability)
            assert total == 1
