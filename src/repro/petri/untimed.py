"""Untimed semantics: reachability and coverability (Karp–Miller) graphs.

The paper's performance technique builds *timed* reachability graphs, but the
classical untimed graphs remain the work-horses for the correctness-side
questions the paper defers to (deadlock-freeness, boundedness, liveness).
This module provides both:

* :func:`reachability_graph` — explicit enumeration of all markings reachable
  by the atomic firing rule, bounded by ``max_states``;
* :func:`coverability_graph` — the Karp–Miller construction with ``ω``
  components, which terminates on every net and decides boundedness.

Both return light-weight graph objects with deterministic node numbering so
they can be asserted against in tests and rendered by :mod:`repro.viz`.

Both builders accept an ``engine`` argument: ``"compiled"`` (the default)
runs the integer-indexed backend of :mod:`repro.engine.untimed` over the
shared frontier loop, ``"reference"`` the readable marking-based
constructions in this module, and :func:`reachability_graph` additionally
accepts ``"batched"`` — the numpy level-batched kernel of
:mod:`repro.engine.batched`.  All engines are required to produce
bit-identical graphs — same node
numbering, same edge list — which ``tests/engine_diff.py`` enforces
differentially on every bundled workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import UnboundedNetError
from .marking import Marking
from .net import TimedPetriNet

#: Marker used in coverability vectors for "unboundedly many tokens".
OMEGA = float("inf")


@dataclass(frozen=True)
class UntimedEdge:
    """A firing edge of an untimed reachability/coverability graph."""

    source: int
    target: int
    transition: str


class _ColumnarPayload:
    """Deferred columnar state of a batch-built reachability graph.

    The batched engine finishes with plain numpy arrays; materializing one
    :class:`Marking` and one :class:`UntimedEdge` per entry costs more than
    the whole vectorized exploration, so the graph holds the arrays and
    converts them only when a per-object view is actually read.
    """

    __slots__ = ("tables", "vectors", "edge_sources", "edge_targets", "edge_transitions")

    def __init__(self, tables, vectors, edge_sources, edge_targets, edge_transitions):
        self.tables = tables
        self.vectors = vectors
        self.edge_sources = edge_sources
        self.edge_targets = edge_targets
        self.edge_transitions = edge_transitions

    @property
    def state_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def edge_count(self) -> int:
        return self.edge_sources.shape[0]


class UntimedReachabilityGraph:
    """Explicit untimed reachability graph (markings as nodes).

    The scalar engines grow the graph one marking/edge at a time through
    ``_add_marking``/``_add_edge``; the batched engine bulk-loads columnar
    arrays through ``_adopt_columnar`` and the per-object views
    (:attr:`markings`, :attr:`edges`, ...) materialize lazily on first
    access — ``state_count``/``edge_count`` answer straight from the array
    shapes.  Either way the public content is bit-identical across engines.
    """

    #: Construction telemetry, set by engines that run the shared frontier
    #: loop (compiled/batched); ``None`` for the reference backend.
    _build_stats = None

    def __init__(self, net: TimedPetriNet):
        self.net = net
        self._markings: List[Marking] = []
        self._index_of: Dict[Marking, int] = {}
        self._edges: List[UntimedEdge] = []
        self._successor_edges: Dict[int, List[int]] = {}
        self._pending: Optional[_ColumnarPayload] = None

    # -- construction helpers (used by reachability_graph) -------------

    def _add_marking(self, marking: Marking) -> Tuple[int, bool]:
        existing = self._index_of.get(marking)
        if existing is not None:
            return existing, False
        index = len(self._markings)
        self._markings.append(marking)
        self._index_of[marking] = index
        self._successor_edges[index] = []
        return index, True

    def _add_edge(self, source: int, target: int, transition: str) -> None:
        self._edges.append(UntimedEdge(source, target, transition))
        self._successor_edges[source].append(len(self._edges) - 1)

    def _adopt_columnar(
        self, tables, vectors, edge_sources, edge_targets, edge_transitions
    ) -> None:
        """Bulk-load the batched engine's columnar arrays (lazy views)."""
        self._pending = _ColumnarPayload(
            tables, vectors, edge_sources, edge_targets, edge_transitions
        )

    def _materialize(self) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        tables = pending.tables
        names = tables.transition_names
        markings = [tables.to_marking(row) for row in pending.vectors.tolist()]
        self._markings = markings
        self._index_of = {marking: index for index, marking in enumerate(markings)}
        edges = [
            UntimedEdge(source, target, names[transition])
            for source, target, transition in zip(
                pending.edge_sources.tolist(),
                pending.edge_targets.tolist(),
                pending.edge_transitions.tolist(),
            )
        ]
        self._edges = edges
        successor_edges: Dict[int, List[int]] = {index: [] for index in range(len(markings))}
        for position, edge in enumerate(edges):
            successor_edges[edge.source].append(position)
        self._successor_edges = successor_edges

    # -- queries --------------------------------------------------------

    @property
    def markings(self) -> List[Marking]:
        """All reachable markings in FIFO discovery order."""
        if self._pending is not None:
            self._materialize()
        return self._markings

    @property
    def index_of(self) -> Dict[Marking, int]:
        """Marking → node-index lookup."""
        if self._pending is not None:
            self._materialize()
        return self._index_of

    @property
    def edges(self) -> List[UntimedEdge]:
        """All firing edges in emission order."""
        if self._pending is not None:
            self._materialize()
        return self._edges

    @property
    def state_count(self) -> int:
        """Number of distinct reachable markings."""
        if self._pending is not None:
            return self._pending.state_count
        return len(self._markings)

    @property
    def edge_count(self) -> int:
        """Number of firing edges."""
        if self._pending is not None:
            return self._pending.edge_count
        return len(self._edges)

    def build_stats(self):
        """The construction's :class:`~repro.engine.frontier.FrontierStats`.

        Available for the engines that run the shared frontier loop
        (``"compiled"`` and ``"batched"``); ``None`` otherwise.
        """
        return self._build_stats

    def successors(self, index: int) -> List[UntimedEdge]:
        """Outgoing edges of a marking index."""
        if self._pending is not None:
            self._materialize()
        return [self._edges[edge_index] for edge_index in self._successor_edges[index]]

    def dead_markings(self) -> List[int]:
        """Indices of markings with no enabled transition (deadlocks)."""
        return [
            index
            for index, marking in enumerate(self.markings)
            if not self.net.enabled_transitions(marking)
        ]

    def is_deadlock_free(self) -> bool:
        """True when no reachable marking is dead."""
        return not self.dead_markings()

    def max_tokens_per_place(self) -> Dict[str, int]:
        """The bound observed for every place over all reachable markings."""
        bounds = {place: 0 for place in self.net.place_order}
        for marking in self.markings:
            for place in self.net.place_order:
                bounds[place] = max(bounds[place], marking[place])
        return bounds

    def bound(self) -> int:
        """The net's k-bound (maximum tokens observed in any place)."""
        per_place = self.max_tokens_per_place()
        return max(per_place.values()) if per_place else 0

    def is_safe(self) -> bool:
        """True when the net is 1-bounded over the reachable markings."""
        return self.bound() <= 1

    def fired_transitions(self) -> frozenset:
        """Transitions that appear on at least one edge (quasi-liveness support)."""
        return frozenset(edge.transition for edge in self.edges)

    def __repr__(self) -> str:
        return (
            f"UntimedReachabilityGraph(states={self.state_count}, edges={self.edge_count})"
        )


def reachability_graph(
    net: TimedPetriNet,
    *,
    max_states: int = 100_000,
    engine: str = "compiled",
    store=None,
    spill_threshold: Optional[int] = None,
    control=None,
) -> UntimedReachabilityGraph:
    """Enumerate every marking reachable with the atomic firing rule.

    Raises :class:`~repro.exceptions.UnboundedNetError` when more than
    ``max_states`` markings are generated, which for an unbounded net happens
    after finitely many steps (use :func:`coverability_graph` to *decide*
    boundedness first).

    ``engine`` selects the construction backend: ``"compiled"`` (default)
    runs the integer-vector BFS of
    :func:`repro.engine.untimed.compiled_reachability_graph`, ``"reference"``
    the readable marking-based enumeration below, ``"batched"`` the numpy
    level-batched kernel of
    :func:`repro.engine.batched.batched_reachability_graph` (whole frontiers
    expand as one enabledness mask).  All three produce identical graphs.

    ``store`` (``None``, ``"disk"``, or a
    :class:`~repro.engine.store.DiskStateStore`) spills the construction's
    working set — the dedup index and frontier of the compiled engine, the
    dense state matrix of the batched kernel — to disk past
    ``spill_threshold`` interned states, without changing the built graph
    (bit-identical, see ``tests/engine_diff.py``).  Supported by the
    frontier-core engines (``"compiled"`` and ``"batched"``) only.

    ``control`` (a :class:`~repro.engine.runtime.RunControl`) bounds the
    construction: deadline, cooperative cancellation, progress reports and
    periodic resumable checkpoints.  Supported by the frontier-core
    engines; an interrupted build raises
    :class:`~repro.exceptions.BuildInterruptedError` carrying the
    checkpoint that :func:`repro.engine.runtime.resume` completes
    bit-identically.
    """
    # Imported lazily: repro.engine imports this module's graph classes.
    from ..engine import ENGINE_COMPILED, ENGINE_REFERENCE, check_engine
    from ..engine.batched import batched_reachability_graph
    from ..engine.runtime import build_store
    from ..engine.untimed import compiled_reachability_graph

    check_engine(engine)
    resolved, owned = build_store(
        engine, store, spill_threshold=spill_threshold, control=control
    )
    if engine != ENGINE_REFERENCE:
        builder = (
            compiled_reachability_graph
            if engine == ENGINE_COMPILED
            else batched_reachability_graph
        )
        try:
            return builder(net, max_states=max_states, store=resolved, control=control)
        finally:
            if owned:
                resolved.close()
    graph = UntimedReachabilityGraph(net)
    initial_index, _ = graph._add_marking(net.initial_marking)
    frontier = deque([initial_index])
    while frontier:
        index = frontier.popleft()
        marking = graph.markings[index]
        for transition_name in net.enabled_transitions(marking):
            successor = net.fire_untimed(marking, transition_name)
            successor_index, is_new = graph._add_marking(successor)
            graph._add_edge(index, successor_index, transition_name)
            if is_new:
                if graph.state_count > max_states:
                    raise UnboundedNetError(
                        f"untimed reachability exceeded {max_states} markings; the net "
                        "is unbounded or the bound is too small"
                    )
                frontier.append(successor_index)
    return graph


# ---------------------------------------------------------------------------
# Coverability (Karp–Miller)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverabilityNode:
    """A Karp–Miller node: token counts per place where ``OMEGA`` means unbounded."""

    vector: Tuple[float, ...]

    def covers(self, other: "CoverabilityNode") -> bool:
        """Component-wise ``>=`` comparison."""
        return all(a >= b for a, b in zip(self.vector, other.vector))

    def strictly_covers(self, other: "CoverabilityNode") -> bool:
        """Covers and differs in at least one component."""
        return self.covers(other) and self.vector != other.vector


class CoverabilityGraph:
    """Karp–Miller coverability graph."""

    #: Construction telemetry (compiled engine only), see :meth:`build_stats`.
    _build_stats = None

    def __init__(self, net: TimedPetriNet):
        self.net = net
        self.nodes: List[CoverabilityNode] = []
        self.index_of: Dict[Tuple[float, ...], int] = {}
        self.edges: List[UntimedEdge] = []

    def _add_node(self, node: CoverabilityNode) -> Tuple[int, bool]:
        existing = self.index_of.get(node.vector)
        if existing is not None:
            return existing, False
        index = len(self.nodes)
        self.nodes.append(node)
        self.index_of[node.vector] = index
        return index, True

    @property
    def node_count(self) -> int:
        """Number of distinct coverability nodes."""
        return len(self.nodes)

    def is_bounded(self) -> bool:
        """True when no node contains an ``ω`` component."""
        return all(OMEGA not in node.vector for node in self.nodes)

    def unbounded_places(self) -> Tuple[str, ...]:
        """Places that acquire an ``ω`` component somewhere in the graph."""
        unbounded = set()
        for node in self.nodes:
            for place, value in zip(self.net.place_order, node.vector):
                if value == OMEGA:
                    unbounded.add(place)
        return tuple(sorted(unbounded))

    def place_bound(self, place_name: str) -> Optional[int]:
        """The bound of a place, or ``None`` when it is unbounded."""
        index = self.net.place_order.index(place_name)
        best = 0
        for node in self.nodes:
            value = node.vector[index]
            if value == OMEGA:
                return None
            best = max(best, int(value))
        return best

    def build_stats(self):
        """The construction's :class:`~repro.engine.frontier.FrontierStats`
        when built with ``engine="compiled"`` (the shared frontier loop);
        ``None`` for the reference construction."""
        return self._build_stats

    def __repr__(self) -> str:
        return f"CoverabilityGraph(nodes={self.node_count}, edges={len(self.edges)})"


def _enabled_in_vector(net: TimedPetriNet, vector: Sequence[float], transition_name: str) -> bool:
    transition = net.transition(transition_name)
    place_index = {name: index for index, name in enumerate(net.place_order)}
    return all(vector[place_index[place]] >= weight for place, weight in transition.inputs.items())


def _fire_vector(net: TimedPetriNet, vector: Sequence[float], transition_name: str) -> List[float]:
    transition = net.transition(transition_name)
    place_index = {name: index for index, name in enumerate(net.place_order)}
    result = list(vector)
    for place, weight in transition.inputs.items():
        if result[place_index[place]] != OMEGA:
            result[place_index[place]] -= weight
    for place, weight in transition.outputs.items():
        if result[place_index[place]] != OMEGA:
            result[place_index[place]] += weight
    return result


def coverability_graph(
    net: TimedPetriNet,
    *,
    max_nodes: int = 50_000,
    engine: str = "compiled",
    store=None,
    spill_threshold: Optional[int] = None,
    control=None,
) -> CoverabilityGraph:
    """Build the Karp–Miller coverability graph (always terminates).

    The acceleration step replaces components that strictly grow along a path
    from an ancestor by ``ω``.  ``max_nodes`` is a safety valve for
    pathological nets; reaching it raises
    :class:`~repro.exceptions.UnboundedNetError` because the construction is
    guaranteed finite only with unlimited memory.

    ``engine`` selects the construction backend exactly as in
    :func:`reachability_graph`, except that the Karp–Miller construction
    has no batched backend: the acceleration rule inspects the BFS-tree
    ancestor chain of each work vector, per-path history that a
    level-batched expansion does not preserve.  ``engine="batched"`` is
    therefore rejected; the compiled backend applies the ω-acceleration
    directly on integer vectors through the shared frontier loop,
    vectorizing the per-ancestor re-evaluation into whole-chain numpy
    comparisons.

    ``store``/``spill_threshold`` spill the compiled construction's dedup
    index and work-vector log to disk exactly as in
    :func:`reachability_graph`; the acceleration rule reads ancestor
    vectors back from the spilled log through a bounded cache.
    ``control`` bounds the compiled construction exactly as in
    :func:`reachability_graph` (the checkpoint manifest additionally
    carries the BFS-tree parent chain the acceleration rule needs).
    """
    from ..engine import (
        COVERABILITY_UNSUPPORTED_REASON,
        ENGINE_COMPILED,
        SCALAR_ENGINES,
        check_engine,
    )
    from ..engine.runtime import build_store
    from ..engine.untimed import compiled_coverability_graph

    check_engine(engine, supported=SCALAR_ENGINES, reason=COVERABILITY_UNSUPPORTED_REASON)
    resolved, owned = build_store(
        engine, store, spill_threshold=spill_threshold, control=control
    )
    if engine == ENGINE_COMPILED:
        try:
            return compiled_coverability_graph(
                net, max_nodes=max_nodes, store=resolved, control=control
            )
        finally:
            if owned:
                resolved.close()
    graph = CoverabilityGraph(net)
    root = CoverabilityNode(tuple(float(v) for v in net.initial_marking.to_vector()))
    root_index, _ = graph._add_node(root)
    # Each work item remembers the ancestor chain (indices) for acceleration.
    work: deque = deque([(root_index, (root_index,))])
    while work:
        index, ancestors = work.popleft()
        node = graph.nodes[index]
        for transition_name in net.transition_order:
            if not _enabled_in_vector(net, node.vector, transition_name):
                continue
            successor_vector = _fire_vector(net, node.vector, transition_name)
            # Acceleration: compare against every ancestor on the path.
            for ancestor_index in ancestors:
                ancestor = graph.nodes[ancestor_index]
                candidate = CoverabilityNode(tuple(successor_vector))
                if candidate.strictly_covers(ancestor):
                    successor_vector = [
                        OMEGA if cand > anc else cand
                        for cand, anc in zip(successor_vector, ancestor.vector)
                    ]
            successor = CoverabilityNode(tuple(successor_vector))
            successor_index, is_new = graph._add_node(successor)
            graph.edges.append(UntimedEdge(index, successor_index, transition_name))
            if is_new:
                if graph.node_count > max_nodes:
                    raise UnboundedNetError(
                        f"coverability construction exceeded {max_nodes} nodes"
                    )
                work.append((successor_index, ancestors + (successor_index,)))
    return graph
