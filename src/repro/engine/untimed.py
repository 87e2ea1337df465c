"""Compiled builders for the untimed semantics: reachability and coverability.

Both builders mirror their readable counterparts in
:mod:`repro.petri.untimed` **bit for bit** — same FIFO exploration order,
same node numbering, same edge list, same ``max_states``/``max_nodes``
failure semantics — but run over integer token vectors from
:class:`~repro.engine.tables.NetTables` through the shared frontier loop of
:mod:`repro.engine.frontier`:

* reachability rides the stock :class:`~repro.engine.frontier.UntimedKernel`
  (incremental enabled-set maintenance, one :class:`Marking` per unique
  node) — the same kernel the query layer and, in level-batched form,
  :mod:`repro.engine.batched` execute;
* the Karp–Miller construction supplies its own kernel: work vectors stay
  integer-valued (``ω`` is the shared infinity marker, which compares
  correctly against any int) and the acceleration rule re-evaluates against
  the BFS-tree ancestor chain, reconstructed from a parent-index chain in
  O(depth) per expansion.

The readable implementations remain available through the public builders'
``engine="reference"`` escape hatch and the differential harness in
``tests/engine_diff.py`` enforces the equivalence on every bundled workload.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import StoreError
from ..petri.net import TimedPetriNet
from .frontier import (
    FrontierStats,
    UntimedKernel,
    coverability_limits,
    explore,
    untimed_limits,
)
from .runtime import CheckpointWriter, raise_interrupted
from .store import DiskStateStore
from .tables import NetTables


def _make_writer(control, *, kind, net, params, extra, store):
    """A :class:`CheckpointWriter` when the control asks for one, else None.

    A durable store is the substrate of every store-backed checkpoint, so
    checkpointing without one is a usage error (the public builders anchor
    a store inside the checkpoint directory automatically).
    """
    if control is None or not control.wants_checkpoint:
        return None
    if store is None:
        raise ValueError(
            "checkpointing requires a durable store; pass store='disk' (or a "
            "DiskStateStore), or call through the public builders which anchor "
            "one inside the checkpoint directory"
        )
    return CheckpointWriter(
        control, kind=kind, net=net, params=params, extra=extra, store=store
    )


def _cursor(resume_from) -> int:
    """Expansion cursor a build starts from: 0, or the checkpoint's."""
    return resume_from.cursor if resume_from is not None else 0


def compiled_reachability_graph(
    net: TimedPetriNet,
    *,
    max_states: int,
    store: Optional[DiskStateStore] = None,
    control=None,
    resume_from=None,
):
    """Compiled counterpart of :func:`repro.petri.untimed.reachability_graph`.

    With a ``store`` the dedup index and the frontier item log live in the
    spillable :class:`~repro.engine.store.DiskStateStore` instead of resident
    dicts, so the construction's working set stays bounded past the store's
    threshold; interning order — and therefore the built graph — is
    unchanged bit for bit.  A ``control``
    (:class:`~repro.engine.runtime.RunControl`) adds deadline/cancellation
    checks at every item boundary and, with a ``checkpoint_dir``, periodic
    resumable checkpoints; an interruption raises
    :class:`~repro.exceptions.BuildInterruptedError`.

    ``resume_from`` (an ``untimed`` :class:`~repro.engine.runtime.Checkpoint`
    whose reopened spool is ``store``) continues that build: the markings
    come back from the store's FIFO item log (the log order *is* the
    interning order), the edges from the manifest, and the frontier loop
    re-enters at the saved cursor.  See :func:`repro.engine.runtime.resume`.
    """
    # Imported here to avoid a circular import (petri.untimed imports this
    # module from inside its builder functions).
    from ..petri.untimed import UntimedReachabilityGraph

    tables = NetTables.of(net)
    graph = UntimedReachabilityGraph(net)
    names = tables.transition_names
    kernel = UntimedKernel(tables)

    if store is None:
        index_of_vec: Dict[Tuple[int, ...], int] = {}

        def intern(item, _parent: int) -> Tuple[int, bool]:
            vec = item[0]
            existing = index_of_vec.get(vec)
            if existing is not None:
                return existing, False
            index, _ = graph._add_marking(tables.to_marking(vec))
            index_of_vec[vec] = index
            return index, True

    else:

        def intern(item, _parent: int) -> Tuple[int, bool]:
            index, is_new = store.intern(item[0])
            if is_new:
                graph._add_marking(tables.to_marking(item[0]))
            return index, is_new

    edge_log: List[Tuple[int, int, int]] = []
    if resume_from is not None:
        for item in store.items_range(0, store.item_count):
            graph._add_marking(tables.to_marking(item[0]))
        edge_log = [tuple(edge) for edge in resume_from.manifest["extra"]["edges"]]
        for source, target, transition in edge_log:
            graph._add_edge(source, target, names[transition])
    writer = _make_writer(
        control,
        kind="untimed",
        net=net,
        params={"max_states": max_states},
        extra=lambda: {"edges": list(edge_log)},
        store=store,
    )

    if writer is None:

        def on_edge(source: int, target: int, transition: int) -> None:
            graph._add_edge(source, target, names[transition])

    else:

        def on_edge(source: int, target: int, transition: int) -> None:
            graph._add_edge(source, target, names[transition])
            edge_log.append((source, target, transition))

    stats = explore(
        kernel,
        intern,
        on_edge,
        untimed_limits(max_states),
        stats=FrontierStats(engine="compiled"),
        store=store,
        control=control,
        checkpoint=writer.write if writer is not None else None,
        start_cursor=_cursor(resume_from),
    )
    graph._build_stats = stats
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "untimed reachability build")
    return graph


class _AncestorArchive:
    """The work-vector archive behind the Karp–Miller ancestor chain.

    Resident mode keeps every vector in a plain list, exactly the
    historical ``vec_of``.  Store mode does not duplicate the vectors at
    all: the frontier loop already logs every work item into the
    :class:`~repro.engine.store.DiskStateStore`, so ancestor lookups read
    that same log back through a small bounded LRU — the archive's resident
    footprint stays O(cache), not O(nodes), which is what makes the
    ancestor-chain representation compatible with spilling.
    """

    _CACHE_LIMIT = 8192

    def __init__(self, store: Optional[DiskStateStore] = None):
        self._store = store
        self._resident: List[tuple] = []
        self._cache: "OrderedDict[int, tuple]" = OrderedDict()

    def append(self, vec: tuple) -> None:
        if self._store is None:
            self._resident.append(vec)

    def get(self, index: int) -> tuple:
        if self._store is None:
            return self._resident[index]
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        vec = self._store.item_at(index)
        self._cache[index] = vec
        if len(self._cache) > self._CACHE_LIMIT:
            self._cache.popitem(last=False)
        return vec


class _CoverabilityKernel:
    """Karp–Miller semantics for the shared frontier loop.

    Items are work-vector tuples whose finite components are exact ints and
    whose unbounded components are the shared ``ω`` marker.  The
    acceleration rule — replace components that strictly grew over some
    ancestor by ``ω`` — needs the BFS-tree ancestor chain of the path a
    node was queued on; the builder's ``intern`` registers every new node's
    parent here, and ``expand`` reconstructs the chain in O(depth) from the
    parent-index chain.

    The per-ancestor re-evaluation itself is vectorized: the chain's
    vectors are gathered once per expanded node into a dense float64 matrix
    (``ω`` maps onto IEEE ``inf``, token counts are exact in float64) and
    each successor scans it with whole-matrix comparisons, restarting after
    every ω-promotion exactly where the scalar re-evaluation would — the
    scalar loop only ever re-reads ancestors *after* a promotion point, so
    resuming the scan past it reproduces the reference promotions bit for
    bit.  That turns the O(depth · places) Python loop per successor into
    O(promotions + 1) numpy passes, and promotions are bounded by the place
    count.

    The chain is also why the coverability builder has no batched
    backend: the rule inspects per-path history that a level-batched
    frontier expansion cannot carry.  It *is* compatible with the disk
    store — see :class:`_AncestorArchive`.
    """

    def __init__(self, tables: NetTables, omega, store: Optional[DiskStateStore] = None):
        self.tables = tables
        self.omega = omega
        self.archive = _AncestorArchive(store)
        self.parent_of: List[int] = []

    def seed(self) -> tuple:
        return self.tables.initial_vector()

    def register(self, vec: tuple, parent: int) -> None:
        """Record a newly interned node's vector and BFS-tree parent."""
        self.archive.append(vec)
        self.parent_of.append(parent)

    def _ancestor_matrix(self, index: int) -> np.ndarray:
        """The expanded node's root-first ancestor chain as a float64 matrix."""
        chain: List[int] = []
        node = index
        while node >= 0:
            chain.append(node)
            node = self.parent_of[node]
        chain.reverse()
        archive = self.archive
        return np.array([archive.get(node) for node in chain], dtype=np.float64)

    def expand(self, index: int, vec: tuple):
        tables = self.tables
        omega = self.omega
        ancestors = self._ancestor_matrix(index)
        for transition in range(len(tables.transition_names)):
            if not tables.covers(vec, transition):
                continue
            successor = list(vec)
            for place_idx, count in tables.inputs[transition]:
                if successor[place_idx] != omega:
                    successor[place_idx] -= count
            for place_idx, count in tables.outputs[transition]:
                if successor[place_idx] != omega:
                    successor[place_idx] += count
            # Acceleration: scan the ancestor matrix for the first row the
            # successor covers strictly, promote the strictly-grown
            # components to ω, and resume the scan past that row — the
            # scalar re-evaluation never revisits rows before a promotion
            # point, so this emits the exact same promotions.
            candidate = np.array(successor, dtype=np.float64)
            start = 0
            while start < len(ancestors):
                window = ancestors[start:]
                hits = np.flatnonzero(
                    (candidate >= window).all(axis=1) & (candidate > window).any(axis=1)
                )
                if hits.size == 0:
                    break
                first = int(hits[0])
                candidate = np.where(candidate > window[first], np.inf, candidate)
                start += first + 1
            # Canonical work-vector form — finite components as exact ints,
            # unbounded ones as the shared ω marker — so dedup keys have one
            # byte representation regardless of how a component was derived
            # (the disk store deduplicates on serialized keys).
            yield transition, tuple(
                omega if value == np.inf else int(value) for value in candidate
            )


def compiled_coverability_graph(
    net: TimedPetriNet,
    *,
    max_nodes: int,
    store: Optional[DiskStateStore] = None,
    control=None,
    resume_from=None,
):
    """Compiled counterpart of :func:`repro.petri.untimed.coverability_graph`.

    With a ``store`` the dedup index and the work-vector log spill past the
    store's threshold, and the acceleration rule reads ancestor vectors back
    from the spilled log (see :class:`_AncestorArchive`) — the node
    numbering and edge list stay bit-identical.  A ``control`` adds
    deadline/cancellation checks and resumable checkpoints; the manifest
    carries the BFS-tree parent chain the ω-acceleration rule walks, so a
    resumed construction accelerates exactly like an uninterrupted one.

    ``resume_from`` (a ``coverability`` checkpoint whose reopened spool is
    ``store``) continues that construction: nodes from the store's item
    log, edges and the parent chain from the manifest, then the frontier
    loop from the saved cursor.
    """
    from ..petri.untimed import OMEGA, CoverabilityGraph, CoverabilityNode, UntimedEdge

    tables = NetTables.of(net)
    graph = CoverabilityGraph(net)
    names = tables.transition_names
    kernel = _CoverabilityKernel(tables, OMEGA, store)

    if store is None:
        index_of_vec: Dict[tuple, int] = {}

        def intern(vec: tuple, parent: int) -> Tuple[int, bool]:
            existing = index_of_vec.get(vec)
            if existing is not None:
                return existing, False
            # Materialize the float vector only for unique nodes, so the
            # public graph is indistinguishable from the reference
            # construction.
            index, _ = graph._add_node(CoverabilityNode(tuple(float(v) for v in vec)))
            index_of_vec[vec] = index
            kernel.register(vec, parent)
            return index, True

    else:

        def intern(vec: tuple, parent: int) -> Tuple[int, bool]:
            index, is_new = store.intern(vec)
            if is_new:
                graph._add_node(CoverabilityNode(tuple(float(v) for v in vec)))
                kernel.register(vec, parent)
            return index, is_new

    edge_log: List[Tuple[int, int, int]] = []
    if resume_from is not None:
        parents: List[int] = list(resume_from.manifest["extra"]["parents"])
        if len(parents) != store.item_count:
            # The writer persists the store and the parent chain in the same
            # checkpoint, so a mismatch means the spool does not belong to
            # this manifest.
            raise StoreError(
                f"coverability checkpoint parent chain covers {len(parents)} nodes "
                f"but the store logs {store.item_count} items"
            )
        kernel.parent_of = parents
        for vec in store.items_range(0, store.item_count):
            graph._add_node(CoverabilityNode(tuple(float(v) for v in vec)))
        edge_log = [tuple(edge) for edge in resume_from.manifest["extra"]["edges"]]
        for source, target, transition in edge_log:
            graph.edges.append(UntimedEdge(source, target, names[transition]))
    writer = _make_writer(
        control,
        kind="coverability",
        net=net,
        params={"max_nodes": max_nodes},
        extra=lambda: {"edges": list(edge_log), "parents": list(kernel.parent_of)},
        store=store,
    )

    if writer is None:

        def on_edge(source: int, target: int, transition: int) -> None:
            graph.edges.append(UntimedEdge(source, target, names[transition]))

    else:

        def on_edge(source: int, target: int, transition: int) -> None:
            graph.edges.append(UntimedEdge(source, target, names[transition]))
            edge_log.append((source, target, transition))

    stats = explore(
        kernel,
        intern,
        on_edge,
        coverability_limits(max_nodes),
        stats=FrontierStats(engine="compiled"),
        store=store,
        control=control,
        checkpoint=writer.write if writer is not None else None,
        start_cursor=_cursor(resume_from),
    )
    graph._build_stats = stats
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "coverability construction")
    return graph


__all__ = [
    "compiled_coverability_graph",
    "compiled_reachability_graph",
]
