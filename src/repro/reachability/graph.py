"""Timed Reachability Graphs (numeric and symbolic).

The graph is built by breadth-first application of the Figure-3 successor
procedure starting from the initial timed state.  Nodes are
:class:`~repro.reachability.state.TimedState` values (deduplicated by
marking + RET + RFT), edges carry the delay, branching probability and the
transitions that began/finished firing, and — in the symbolic construction —
the labels of the declared timing constraints that were needed to resolve
the step (the paper's Figure 7).

Use :func:`timed_reachability_graph` for nets with concrete delays
(Section 2 / Figure 4) and :func:`symbolic_timed_reachability_graph` for nets
with symbolic delays under declared timing constraints (Section 3 /
Figure 6).  Both return the same :class:`TimedReachabilityGraph` structure,
so everything downstream (decision graphs, performance derivation,
visualization) is agnostic to which construction produced it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from ..engine import (
    BATCHED_UNSUPPORTED_REASON,
    ENGINE_COMPILED,
    ENGINE_REFERENCE,
    SCALAR_ENGINES,
    check_engine,
)
from ..exceptions import UnboundedNetError
from ..petri.net import TimedPetriNet
from ..symbolic.constraints import ConstraintSet
from .algebra import (
    ProbabilityScalar,
    TimeScalar,
    numeric_algebras,
    symbolic_algebras,
)
from .compiled import build_compiled_graph
from .state import TimedState
from .successors import OVERLAP_ERROR, STEP_ADVANCE, STEP_FIRE, SuccessorGenerator

# Engine selection for the public graph builders is shared with the untimed
# and GSPN builders through :mod:`repro.engine`.  The compiled engine is the
# default; the reference engine keeps the readable, paper-shaped
# implementation available for differential testing and debugging.  Both
# produce bit-identical graphs.


@dataclass(frozen=True)
class TimedEdge:
    """An edge of a timed reachability graph.

    ``index`` is the position in the graph's edge list; ``source`` and
    ``target`` are node indices.
    """

    index: int
    source: int
    target: int
    delay: TimeScalar
    probability: ProbabilityScalar
    fired: Tuple[str, ...]
    completed: Tuple[str, ...]
    kind: str
    used_constraints: Tuple[str, ...] = ()

    @property
    def is_timed(self) -> bool:
        """True for time-advance edges (fire edges have zero delay by construction)."""
        return self.kind == STEP_ADVANCE


@dataclass
class TimedNode:
    """A node of a timed reachability graph."""

    index: int
    state: TimedState
    successor_edges: List[int] = field(default_factory=list)
    predecessor_edges: List[int] = field(default_factory=list)

    @property
    def number(self) -> int:
        """1-based state number, matching the paper's figures."""
        return self.index + 1


class TimedReachabilityGraph:
    """The timed reachability graph of a net (numeric or symbolic)."""

    #: Set by the compiled builder to the exploration's FrontierStats.
    _build_stats = None

    def __init__(self, net: TimedPetriNet, *, symbolic: bool, constraints: Optional[ConstraintSet] = None):
        self.net = net
        self.symbolic = symbolic
        self.constraints = constraints
        self.nodes: List[TimedNode] = []
        self.edges: List[TimedEdge] = []
        self._index_of: Optional[Dict[TimedState, int]] = {}
        self.initial_index = 0

    @property
    def index_of(self) -> Dict[TimedState, int]:
        """State → node index.  Rebuilt lazily after cache rehydration.

        A graph decoded from a cached artifact
        (:mod:`repro.analysis.codec`) defers this dict: hashing every state
        is a large part of rehydration cost and most cached-artifact
        consumers never look states up by value.  The rebuilt dict is
        bit-identical to the construction-time one (states are interned in
        node order, and first insertion wins for duplicates — which cannot
        occur, as nodes are deduplicated by construction).
        """
        if self._index_of is None:
            self._index_of = {node.state: node.index for node in self.nodes}
        return self._index_of

    # ------------------------------------------------------------------
    # Construction helpers (used by the builder functions)
    # ------------------------------------------------------------------

    def _add_state(self, state: TimedState) -> Tuple[int, bool]:
        index_map = self.index_of
        existing = index_map.get(state)
        if existing is not None:
            return existing, False
        index = len(self.nodes)
        self.nodes.append(TimedNode(index, state))
        index_map[state] = index
        return index, True

    def _add_edge(
        self,
        source: int,
        target: int,
        delay: TimeScalar,
        probability: ProbabilityScalar,
        fired: Tuple[str, ...],
        completed: Tuple[str, ...],
        kind: str,
        used_constraints: Tuple[str, ...],
    ) -> TimedEdge:
        edge = TimedEdge(
            index=len(self.edges),
            source=source,
            target=target,
            delay=delay,
            probability=probability,
            fired=fired,
            completed=completed,
            kind=kind,
            used_constraints=used_constraints,
        )
        self.edges.append(edge)
        self.nodes[source].successor_edges.append(edge.index)
        self.nodes[target].predecessor_edges.append(edge.index)
        return edge

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def state_count(self) -> int:
        """Number of distinct timed states."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def node(self, index: int) -> TimedNode:
        """Node by 0-based index."""
        return self.nodes[index]

    def state(self, index: int) -> TimedState:
        """Timed state of a node."""
        return self.nodes[index].state

    def build_stats(self):
        """The construction's :class:`~repro.engine.frontier.FrontierStats`.

        Populated by the ``"compiled"`` engine (the backend that runs the
        shared frontier loop in-process); ``None`` for the other engines.
        """
        return self._build_stats

    def successors(self, index: int) -> List[TimedEdge]:
        """Outgoing edges of a node."""
        return [self.edges[edge_index] for edge_index in self.nodes[index].successor_edges]

    def predecessors(self, index: int) -> List[TimedEdge]:
        """Incoming edges of a node."""
        return [self.edges[edge_index] for edge_index in self.nodes[index].predecessor_edges]

    def is_decision_node(self, index: int) -> bool:
        """A decision node has more than one successor (a probabilistic choice)."""
        return len(self.nodes[index].successor_edges) > 1

    def decision_nodes(self) -> List[int]:
        """Indices of all decision nodes."""
        return [node.index for node in self.nodes if self.is_decision_node(node.index)]

    def dead_nodes(self) -> List[int]:
        """Indices of nodes with no successor (terminal states)."""
        return [node.index for node in self.nodes if not node.successor_edges]

    def fire_edges(self) -> List[TimedEdge]:
        """Edges on which transitions begin firing (zero delay)."""
        return [edge for edge in self.edges if edge.kind == STEP_FIRE]

    def advance_edges(self) -> List[TimedEdge]:
        """Edges on which time elapses."""
        return [edge for edge in self.edges if edge.kind == STEP_ADVANCE]

    def transitions_started(self) -> frozenset:
        """Every transition that begins firing somewhere in the graph."""
        started = set()
        for edge in self.edges:
            started.update(edge.fired)
        return frozenset(started)

    # ------------------------------------------------------------------
    # Figure 7: constraint usage
    # ------------------------------------------------------------------

    def constraint_usage(self, *, only_multi_clock: bool = True) -> List[Tuple[int, int, Tuple[str, ...]]]:
        """Rows of the paper's Figure 7: (source node, target node, constraints used).

        With ``only_multi_clock=True`` (default) only steps whose source state
        had more than one pending clock are reported, because those are the
        only states where the constraints actually arbitrate an ordering —
        exactly the five states the paper lists.
        """
        rows = []
        for edge in self.edges:
            if edge.kind != STEP_ADVANCE:
                continue
            pending = self.nodes[edge.source].state.pending_entries()
            if only_multi_clock and len(pending) < 2:
                continue
            rows.append((edge.source, edge.target, edge.used_constraints))
        return rows

    def used_constraint_labels(self) -> Tuple[str, ...]:
        """Every declared-constraint label used anywhere in the construction."""
        labels = set()
        for edge in self.edges:
            labels.update(edge.used_constraints)
        return tuple(sorted(labels))

    # ------------------------------------------------------------------
    # Tables (Figures 4b / 6b) and exports
    # ------------------------------------------------------------------

    def state_table(self) -> List[Tuple[str, ...]]:
        """Rows of the Figure-4b/6b state table: number, marking, RET, RFT columns."""
        place_order = self.net.place_order
        transition_order = self.net.transition_order
        rows = []
        for node in self.nodes:
            rows.append((str(node.number),) + node.state.table_row(place_order, transition_order))
        return rows

    def state_table_header(self) -> Tuple[str, ...]:
        """Header matching :meth:`state_table`."""
        return (
            ("state",)
            + tuple(self.net.place_order)
            + tuple(f"RET({name})" for name in self.net.transition_order)
            + tuple(f"RFT({name})" for name in self.net.transition_order)
        )

    def edge_table(self) -> List[Tuple[str, str, str, str, str]]:
        """Edge rows: (source, target, delay, probability, fired/completed)."""
        rows = []
        for edge in self.edges:
            # A fire edge can both start firings and complete instantaneous
            # transitions; render both parts (e.g. "t1+t2!t3") instead of
            # silently dropping the completions.
            action = "+".join(edge.fired)
            if edge.completed:
                action += "!" + "+".join(edge.completed)
            rows.append(
                (
                    str(edge.source + 1),
                    str(edge.target + 1),
                    str(edge.delay),
                    str(edge.probability),
                    action,
                )
            )
        return rows

    def to_networkx(self) -> "nx.MultiDiGraph":
        """Export as a networkx MultiDiGraph (nodes keyed by index)."""
        graph = nx.MultiDiGraph()
        for node in self.nodes:
            graph.add_node(node.index, state=node.state, decision=self.is_decision_node(node.index))
        for edge in self.edges:
            graph.add_edge(
                edge.source,
                edge.target,
                key=edge.index,
                delay=edge.delay,
                probability=edge.probability,
                fired=edge.fired,
                completed=edge.completed,
                kind=edge.kind,
            )
        return graph

    def __repr__(self) -> str:
        flavour = "symbolic" if self.symbolic else "numeric"
        return (
            f"TimedReachabilityGraph({flavour}, states={self.state_count}, "
            f"edges={self.edge_count}, decisions={len(self.decision_nodes())})"
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build(
    net: TimedPetriNet,
    generator: SuccessorGenerator,
    *,
    symbolic: bool,
    constraints: Optional[ConstraintSet],
    max_states: int,
) -> TimedReachabilityGraph:
    graph = TimedReachabilityGraph(net, symbolic=symbolic, constraints=constraints)
    initial = generator.initial_state()
    initial_index, _ = graph._add_state(initial)
    graph.initial_index = initial_index
    frontier = deque([initial_index])
    expanded = set()
    while frontier:
        index = frontier.popleft()
        if index in expanded:
            continue
        expanded.add(index)
        for successor in generator.successors(graph.nodes[index].state):
            target_index, is_new = graph._add_state(successor.target)
            graph._add_edge(
                index,
                target_index,
                successor.delay,
                successor.probability,
                successor.fired,
                successor.completed,
                successor.kind,
                successor.used_constraints,
            )
            if is_new:
                if graph.state_count > max_states:
                    raise UnboundedNetError(
                        f"timed reachability graph exceeded {max_states} states; "
                        "the net may be unbounded under the timed semantics or the "
                        "bound is too small"
                    )
                frontier.append(target_index)
    return graph


def timed_reachability_graph(
    net: TimedPetriNet,
    *,
    max_states: int = 100_000,
    overlap_policy: str = OVERLAP_ERROR,
    engine: str = ENGINE_COMPILED,
) -> TimedReachabilityGraph:
    """Build the numeric timed reachability graph of a net (Section 2 / Figure 4).

    Every enabling time, firing time and firing frequency of the net must be
    numeric; use :func:`symbolic_timed_reachability_graph` otherwise.

    ``engine`` selects the construction backend: ``"compiled"`` (default)
    runs the integer-indexed engine of :mod:`repro.reachability.compiled`,
    and ``"reference"`` the readable name-based procedure; both produce
    bit-identical graphs.  ``engine="batched"`` is rejected: timed states
    carry per-state clock vectors the level-batched kernel cannot represent.
    """
    if net.is_symbolic:
        raise ValueError(
            "net has symbolic annotations; use symbolic_timed_reachability_graph() "
            "with the declared timing constraints"
        )
    check_engine(engine, supported=SCALAR_ENGINES, reason=BATCHED_UNSUPPORTED_REASON)
    time_algebra, probability_algebra = numeric_algebras()
    if engine == ENGINE_COMPILED:
        return build_compiled_graph(
            net,
            time_algebra,
            probability_algebra,
            symbolic=False,
            constraints=None,
            max_states=max_states,
            overlap_policy=overlap_policy,
        )
    generator = SuccessorGenerator(
        net, time_algebra, probability_algebra, overlap_policy=overlap_policy
    )
    return _build(net, generator, symbolic=False, constraints=None, max_states=max_states)


def symbolic_timed_reachability_graph(
    net: TimedPetriNet,
    constraints: ConstraintSet | Sequence = (),
    *,
    max_states: int = 100_000,
    overlap_policy: str = OVERLAP_ERROR,
    engine: str = ENGINE_COMPILED,
) -> TimedReachabilityGraph:
    """Build the symbolic timed reachability graph of a net (Section 3 / Figure 6).

    ``constraints`` is the set of declared timing constraints; it must be
    consistent and strong enough to resolve every "smallest non-zero clock"
    decision, otherwise
    :class:`~repro.exceptions.InsufficientConstraintsError` is raised with
    the expressions that could not be ordered.

    ``engine`` selects the construction backend exactly as in
    :func:`timed_reachability_graph`; ``engine="batched"`` is rejected the
    same way.
    """
    if not isinstance(constraints, ConstraintSet):
        constraints = ConstraintSet(list(constraints))
    constraints.assert_consistent()
    check_engine(engine, supported=SCALAR_ENGINES, reason=BATCHED_UNSUPPORTED_REASON)
    time_algebra, probability_algebra = symbolic_algebras(constraints)
    if engine == ENGINE_COMPILED:
        return build_compiled_graph(
            net,
            time_algebra,
            probability_algebra,
            symbolic=True,
            constraints=constraints,
            max_states=max_states,
            overlap_policy=overlap_policy,
        )
    generator = SuccessorGenerator(
        net, time_algebra, probability_algebra, overlap_policy=overlap_policy
    )
    return _build(net, generator, symbolic=True, constraints=constraints, max_states=max_states)
