"""Compiled marking-graph exploration for the GSPN (exponential-delay) baseline.

:meth:`repro.stochastic.gspn.GSPNAnalysis._explore` walks the classical
race-semantics marking graph: immediate transitions pre-empt timed ones,
vanishing markings (where an immediate transition is enabled) are recorded
for later elimination, and an optional ``place_capacity`` truncates
successors that would overflow a place.  The readable implementation
re-resolves transitions by name and rescans the whole transition list per
marking; this module runs the *same* exploration over integer token vectors
through the shared frontier loop of :mod:`repro.engine.frontier` — with the
:class:`~repro.engine.frontier.GSPNKernel` that :mod:`repro.engine.batched`
vectorizes — producing
bit-identical markings, edges and vanishing sets (enforced by
``tests/engine_diff.py``).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..petri.marking import Marking
from ..petri.net import TimedPetriNet
from .frontier import FrontierStats, GSPNKernel, explore, gspn_limits
from .runtime import open_checkpoint_store, raise_interrupted
from .store import DiskStateStore
from .tables import NetTables
from .untimed import _make_writer


def compiled_marking_graph(
    net: TimedPetriNet,
    *,
    immediate: Mapping[str, bool],
    weights: Mapping[str, float],
    rates: Mapping[str, float],
    max_states: int,
    place_capacity: Optional[int],
    stats_sink: Optional[list] = None,
    store: Optional[DiskStateStore] = None,
    control=None,
) -> Tuple[List[Marking], List[Tuple[int, int, str, float, bool]], Set[int]]:
    """Explore the GSPN marking graph; returns ``(markings, edges, vanishing)``.

    Edges are ``(source, target, transition, rate-or-weight, is_immediate)``
    tuples exactly as the reference exploration emits them.  When given,
    ``stats_sink`` receives the construction's
    :class:`~repro.engine.frontier.FrontierStats`; a ``store`` spills the
    dedup index and the frontier item log past its threshold without
    changing the exploration order.  Vanishing membership is decided at
    intern time from the item's enabled set, so no per-state enabled tuple
    is retained for the posthoc pass — on resume it is recomputed from the
    logged items' enabled sets, which is why the checkpoint manifest only
    needs the edge list.  A ``control``
    (:class:`~repro.engine.runtime.RunControl`) adds deadline/cancellation
    checks and periodic resumable checkpoints.
    """
    tables = NetTables.of(net)
    names = tables.transition_names
    is_immediate = tuple(immediate[name] for name in names)
    weight_of = tuple(weights[name] for name in names)
    rate_of = tuple(rates[name] for name in names)
    kernel = GSPNKernel(tables, is_immediate=is_immediate, place_capacity=place_capacity)

    markings: List[Marking] = []
    edges: List[Tuple[int, int, str, float, bool]] = []
    vanishing: Set[int] = set()

    def note_vanishing(index: int, enabled) -> None:
        if any(is_immediate[t] for t in enabled):
            vanishing.add(index)

    if store is None:
        index_of_vec: Dict[Tuple[int, ...], int] = {}

        def intern(item, _parent: int) -> Tuple[int, bool]:
            vec, enabled = item
            existing = index_of_vec.get(vec)
            if existing is not None:
                return existing, False
            index = len(markings)
            markings.append(tables.to_marking(vec))
            index_of_vec[vec] = index
            note_vanishing(index, enabled)
            return index, True

    else:

        def intern(item, _parent: int) -> Tuple[int, bool]:
            vec, enabled = item
            index, is_new = store.intern(vec)
            if is_new:
                markings.append(tables.to_marking(vec))
                note_vanishing(index, enabled)
            return index, is_new

    def on_edge(source: int, target: int, transition: int) -> None:
        # The kernel only fires immediate transitions from vanishing states,
        # so the per-transition flag equals the parent's preemption branch.
        if is_immediate[transition]:
            edges.append((source, target, names[transition], weight_of[transition], True))
        else:
            edges.append((source, target, names[transition], rate_of[transition], False))

    writer = _make_writer(
        control,
        kind="gspn",
        net=net,
        params={
            "immediate": dict(immediate),
            "weights": dict(weights),
            "rates": dict(rates),
            "max_states": max_states,
            "place_capacity": place_capacity,
        },
        extra=lambda: {"edges": list(edges)},
        store=store,
    )
    stats = explore(
        kernel,
        intern,
        on_edge,
        gspn_limits(max_states),
        stats=FrontierStats(engine="compiled"),
        store=store,
        control=control,
        checkpoint=writer.write if writer is not None else None,
    )
    if stats_sink is not None:
        stats_sink.append(stats)
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "GSPN marking-graph build")
    return markings, edges, vanishing


def resume_marking_graph(
    checkpoint, *, control=None, stats_sink: Optional[list] = None
) -> Tuple[List[Marking], List[Tuple[int, int, str, float, bool]], Set[int]]:
    """Resume a ``gspn`` checkpoint; returns ``(markings, edges, vanishing)``.

    The marking list and vanishing set are rebuilt from the durable store's
    FIFO item log (the ``(vec, enabled)`` items fix both the numbering and
    the immediate-preemption flag), the edge prefix comes from the
    manifest, and exploration re-enters the shared frontier loop at the
    saved cursor.
    """
    manifest = checkpoint.manifest
    net = checkpoint.restore_net()
    params = manifest["params"]
    immediate = params["immediate"]
    weights = params["weights"]
    rates = params["rates"]
    max_states = params["max_states"]
    place_capacity = params["place_capacity"]
    store = open_checkpoint_store(checkpoint)
    try:
        tables = NetTables.of(net)
        names = tables.transition_names
        is_immediate = tuple(immediate[name] for name in names)
        weight_of = tuple(weights[name] for name in names)
        rate_of = tuple(rates[name] for name in names)
        kernel = GSPNKernel(
            tables, is_immediate=is_immediate, place_capacity=place_capacity
        )

        markings: List[Marking] = []
        edges: List[Tuple[int, int, str, float, bool]] = [
            tuple(edge) for edge in manifest["extra"]["edges"]
        ]
        vanishing: Set[int] = set()

        def note_vanishing(index: int, enabled) -> None:
            if any(is_immediate[t] for t in enabled):
                vanishing.add(index)

        for index, (vec, enabled) in enumerate(store.items_range(0, store.item_count)):
            markings.append(tables.to_marking(vec))
            note_vanishing(index, enabled)

        def intern(item, _parent: int) -> Tuple[int, bool]:
            vec, enabled = item
            index, is_new = store.intern(vec)
            if is_new:
                markings.append(tables.to_marking(vec))
                note_vanishing(index, enabled)
            return index, is_new

        def on_edge(source: int, target: int, transition: int) -> None:
            if is_immediate[transition]:
                edges.append(
                    (source, target, names[transition], weight_of[transition], True)
                )
            else:
                edges.append(
                    (source, target, names[transition], rate_of[transition], False)
                )

        writer = _make_writer(
            control,
            kind="gspn",
            net=net,
            params=dict(params),
            extra=lambda: {"edges": list(edges)},
            store=store,
        )
        stats = explore(
            kernel,
            intern,
            on_edge,
            gspn_limits(max_states),
            stats=FrontierStats(engine="compiled"),
            store=store,
            control=control,
            checkpoint=writer.write if writer is not None else None,
            start_cursor=checkpoint.cursor,
        )
        if stats_sink is not None:
            stats_sink.append(stats)
        if stats.interrupt_reason is not None:
            raise_interrupted(stats, writer, control, "GSPN marking-graph build")
        return markings, edges, vanishing
    finally:
        # The spool persists (explicit path); the connections must not.
        store.close()


__all__ = ["compiled_marking_graph", "resume_marking_graph"]
