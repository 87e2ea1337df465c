"""Tests for structural/behavioural analysis: incidence, invariants, untimed graphs,
properties, siphons and traps, and the early-exit queries that must agree with
the full untimed graph."""

from __future__ import annotations

from fractions import Fraction

import pytest

from engine_diff import NUMERIC_WORKLOADS, UNBOUNDED_UNTIMED
from repro.engine import bound_check, find_deadlock, is_reachable
from repro.exceptions import UnboundedNetError
from repro.petri import (
    IncidenceMatrices,
    NetBuilder,
    behavioural_report,
    check_state_equation,
    commoner_condition,
    coverability_graph,
    find_deadlocks,
    invariant_token_sums,
    is_bounded,
    is_covered_by_place_invariants,
    is_covered_by_transition_invariants,
    is_deadlock_free,
    is_live,
    is_quasi_live,
    is_reversible,
    is_safe,
    is_siphon,
    is_trap,
    maximal_siphon_within,
    maximal_trap_within,
    minimal_siphons,
    minimal_traps,
    place_invariants,
    reachability_graph,
    structural_bound_report,
    transition_invariants,
)
from repro.protocols import producer_consumer_net, token_ring_net


def bounded_cycle_net():
    """A 2-place cycle: trivially bounded, live and reversible."""
    builder = NetBuilder("cycle")
    builder.transition("go", inputs=["p"], outputs=["q"], firing_time=1)
    builder.transition("back", inputs=["q"], outputs=["p"], firing_time=1)
    builder.mark("p")
    return builder.build()


def unbounded_net():
    """A source transition pumps tokens into a place forever."""
    builder = NetBuilder("pump")
    builder.transition("produce", inputs=[], outputs=["p"], firing_time=1)
    builder.transition("consume", inputs=["p", "p"], outputs=[], firing_time=1)
    builder.mark("p")
    return builder.build()


def deadlocking_net():
    """Consumes its only token and stops."""
    builder = NetBuilder("dead")
    builder.transition("eat", inputs=["p"], outputs=[], firing_time=1)
    builder.mark("p")
    return builder.build()


def philosophers_net():
    """Two philosophers who take their left fork first: they can eat and
    release forever, or both hold a left fork and deadlock."""
    builder = NetBuilder("philosophers")
    for me, other in ((0, 1), (1, 0)):
        left, right, holds, eat = f"fork_{me}", f"fork_{other}", f"holds_{me}", f"eat_{me}"
        for name, inputs, outputs in (
            (f"left_{me}", [f"think_{me}", left], [holds]),
            (f"right_{me}", [holds, right], [eat]),
            (f"release_{me}", [eat], [f"think_{me}", left, right]),
        ):
            builder.transition(name, inputs=inputs, outputs=outputs, firing_time=1)
        builder.mark(f"think_{me}").mark(left)
    return builder.build()


#: The bounded workloads (all deadlock-free) plus the deadlocking philosophers.
QUERY_WORKLOADS = {
    label: constructor
    for label, constructor in NUMERIC_WORKLOADS
    if label not in UNBOUNDED_UNTIMED
}
QUERY_WORKLOADS["philosophers"] = philosophers_net
#: The default in-memory query store, and a disk store spilling at once.
QUERY_STORES = {"memory": {}, "disk": {"store": "disk", "spill_threshold": 0}}


def bfs_tree_paths(graph):
    """Firing sequence to each marking along the BFS tree: the graph's edges
    are in FIFO order, so the first edge into a marking is from its parent."""
    paths = {0: ()}
    for edge in graph.edges:
        paths.setdefault(edge.target, paths[edge.source] + (edge.transition,))
    return [paths[index] for index in range(graph.state_count)]


class TestIncidence:
    def test_shapes_and_entries(self, paper_net):
        matrices = IncidenceMatrices(paper_net)
        assert matrices.pre_array().shape == (8, 9)
        # t1: p1 -> p2 + p4
        column = matrices.column("t1")
        place_index = {name: i for i, name in enumerate(paper_net.place_order)}
        assert column[place_index["p1"]] == -1
        assert column[place_index["p2"]] == 1
        assert column[place_index["p4"]] == 1

    def test_rank_positive(self, paper_net):
        assert IncidenceMatrices(paper_net).rank() >= 5

    def test_state_equation_cross_check(self, paper_net):
        # Fire t1 once: p1 -> p2, p4
        counts = [1 if name == "t1" else 0 for name in paper_net.transition_order]
        marking = paper_net.fire_untimed(paper_net.initial_marking, "t1")
        assert check_state_equation(paper_net, marking.to_vector(), counts)

    def test_state_equation_rejects_wrong_marking(self, paper_net):
        counts = [0] * len(paper_net.transition_order)
        wrong = list(paper_net.initial_marking.to_vector())
        wrong[0] += 1
        assert not check_state_equation(paper_net, wrong, counts)


class TestInvariants:
    def test_paper_place_invariants(self, paper_net):
        invariants = place_invariants(paper_net)
        supports = {inv.support for inv in invariants}
        assert ("p8",) in supports  # the receiver token is conserved
        assert ("p1", "p2", "p7") in supports  # the sender is always in exactly one local state

    def test_paper_transition_invariants_are_the_protocol_cycles(self, paper_net):
        invariants = transition_invariants(paper_net)
        supports = {frozenset(inv.support) for inv in invariants}
        assert frozenset({"t1", "t3", "t5"}) in supports  # packet lost
        assert frozenset({"t1", "t3", "t4", "t6", "t9"}) in supports  # ack lost
        assert frozenset({"t1", "t2", "t4", "t6", "t7", "t8"}) in supports  # success

    def test_invariant_token_sums_are_conserved(self, paper_net):
        for invariant, total in invariant_token_sums(paper_net):
            after = paper_net.fire_untimed(paper_net.initial_marking, "t1")
            assert invariant.weighted_sum(after.to_dict()) == total

    def test_coverage_flags(self, paper_net):
        assert not is_covered_by_place_invariants(paper_net)  # medium places are not conserved
        assert is_covered_by_transition_invariants(paper_net)
        ring = token_ring_net(3)
        assert is_covered_by_place_invariants(ring)

    def test_cycle_net_invariants(self):
        net = bounded_cycle_net()
        assert len(place_invariants(net)) == 1
        assert len(transition_invariants(net)) == 1


class TestUntimedGraphs:
    def test_cycle_net_reachability(self):
        graph = reachability_graph(bounded_cycle_net())
        assert graph.state_count == 2
        assert graph.edge_count == 2
        assert graph.is_deadlock_free()
        assert graph.is_safe()

    def test_unbounded_net_detected_by_coverability(self):
        graph = coverability_graph(unbounded_net())
        assert not graph.is_bounded()
        assert "p" in graph.unbounded_places()
        assert graph.place_bound("p") is None

    def test_unbounded_net_reachability_guard(self):
        with pytest.raises(UnboundedNetError):
            reachability_graph(unbounded_net(), max_states=50)

    def test_paper_net_untimed_semantics_is_unbounded(self, paper_net):
        # Ignoring time, the timeout can always fire and pump duplicate
        # packets into the medium — boundedness of the protocol is a *timed*
        # property, which is exactly why the timed reachability graph matters.
        assert not is_bounded(paper_net)

    def test_structural_bounds_for_bounded_net(self):
        bounds = structural_bound_report(producer_consumer_net(buffer_size=2))
        assert bounds["buffer_items"] == 2
        assert bounds["producer_idle"] == 1

    def test_deadlock_detection(self):
        assert find_deadlocks(deadlocking_net()) == [{}]
        assert not is_deadlock_free(deadlocking_net())
        assert is_deadlock_free(bounded_cycle_net())


class TestBehaviouralProperties:
    def test_cycle_net_full_report(self):
        report = behavioural_report(bounded_cycle_net())
        assert report.bounded and report.safe
        assert report.deadlock_free
        assert report.quasi_live
        assert report.live
        assert report.reversible
        assert report.reachable_markings == 2

    def test_deadlocking_net_report(self):
        report = behavioural_report(deadlocking_net())
        assert report.bounded
        assert not report.deadlock_free
        assert report.live is False
        assert report.reversible is False

    def test_safe_and_quasi_live_helpers(self):
        assert is_safe(bounded_cycle_net())
        assert is_quasi_live(bounded_cycle_net())
        assert is_live(bounded_cycle_net())
        assert is_reversible(bounded_cycle_net())
        assert not is_safe(unbounded_net())

    def test_token_ring_report(self):
        report = behavioural_report(token_ring_net(3))
        assert report.bounded and report.safe and report.live and report.reversible


class TestSiphonsTraps:
    def test_siphon_and_trap_detection(self):
        net = bounded_cycle_net()
        assert is_siphon(net, {"p", "q"})
        assert is_trap(net, {"p", "q"})
        assert not is_siphon(net, set())

    def test_paper_net_sender_cycle_is_siphon_and_trap(self, paper_net):
        sender = {"p1", "p2", "p7"}
        assert is_siphon(paper_net, sender)
        assert is_trap(paper_net, sender)

    def test_maximal_siphon_within(self, paper_net):
        assert maximal_siphon_within(paper_net, {"p1", "p2", "p7"}) == frozenset({"p1", "p2", "p7"})
        # p4 alone is not a siphon (t1 feeds it from outside), so it shrinks away.
        assert maximal_siphon_within(paper_net, {"p4"}) == frozenset()

    def test_maximal_trap_within(self, paper_net):
        assert maximal_trap_within(paper_net, {"p8"}) == frozenset({"p8"})

    def test_minimal_siphons_contains_receiver_token(self, paper_net):
        siphons = minimal_siphons(paper_net)
        assert frozenset({"p8"}) in siphons

    def test_minimal_traps(self):
        traps = minimal_traps(bounded_cycle_net())
        assert frozenset({"p", "q"}) in traps

    def test_commoner_condition_on_cycle_net(self):
        assert commoner_condition(bounded_cycle_net())

    def test_commoner_condition_fails_for_deadlocking_net(self):
        assert not commoner_condition(deadlocking_net())


class TestQueriesAgreeWithTheFullGraph:
    """Early-exit answers, witnesses and BFS paths vs the complete graph."""

    @pytest.mark.parametrize("label", sorted(QUERY_WORKLOADS))
    def test_is_reachable_stops_at_each_marking(self, label):
        net = QUERY_WORKLOADS[label]()
        graph = reachability_graph(net)
        paths = bfs_tree_paths(graph)
        for index, marking in enumerate(graph.markings):
            result = is_reachable(net, marking)
            assert (result.witness, result.path) == (marking, paths[index])
            assert result.states_explored == index + 1  # stops at the witness
            assert result.replay(net) == marking

    @pytest.mark.parametrize("store", sorted(QUERY_STORES))
    @pytest.mark.parametrize("label", sorted(QUERY_WORKLOADS))
    def test_find_deadlock_agrees_with_dead_markings(self, label, store):
        net = QUERY_WORKLOADS[label]()
        graph = reachability_graph(net)
        dead = graph.dead_markings()
        result = find_deadlock(net, **QUERY_STORES[store])
        assert result.found == bool(dead) == (label == "philosophers")
        if dead:
            assert result.witness == graph.markings[dead[0]]
            assert result.path == bfs_tree_paths(graph)[dead[0]]
            assert result.states_explored == dead[0] + 1
        else:
            assert result.states_explored == graph.state_count

    @pytest.mark.parametrize("store", sorted(QUERY_STORES))
    @pytest.mark.parametrize("label", sorted(QUERY_WORKLOADS))
    def test_bound_check_agrees_with_place_bounds(self, label, store):
        net = QUERY_WORKLOADS[label]()
        graph = reachability_graph(net)
        paths = bfs_tree_paths(graph)
        for place, bound in graph.max_tokens_per_place().items():
            proven = bound_check(net, place, bound, **QUERY_STORES[store])
            assert (proven.found, proven.states_explored) == (False, graph.state_count)
            if bound:
                first = next(i for i, m in enumerate(graph.markings) if m[place] >= bound)
                violated = bound_check(net, place, bound - 1, **QUERY_STORES[store])
                assert (violated.witness, violated.path) == (graph.markings[first], paths[first])
                assert violated.states_explored == first + 1
