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
from .runtime import raise_interrupted
from .store import DiskStateStore
from .tables import NetTables
from .untimed import _cursor, _make_writer


def compiled_marking_graph(
    net: TimedPetriNet,
    *,
    immediate: Mapping[str, bool],
    weights: Mapping[str, float],
    rates: Mapping[str, float],
    max_states: int,
    place_capacity: Optional[int],
    store: Optional[DiskStateStore] = None,
    control=None,
    resume_from=None,
) -> Tuple[
    List[Marking], List[Tuple[int, int, str, float, bool]], Set[int], FrontierStats
]:
    """Explore the GSPN marking graph; returns ``(markings, edges, vanishing,
    stats)``.

    Edges are ``(source, target, transition, rate-or-weight, is_immediate)``
    tuples exactly as the reference exploration emits them, and ``stats``
    is the construction's :class:`~repro.engine.frontier.FrontierStats`.  A
    ``store`` spills the dedup index and the frontier item log past its
    threshold without changing the exploration order.  Vanishing membership
    is decided at intern time from the item's enabled set, so no per-state
    enabled tuple is retained for the posthoc pass — on resume it is
    recomputed from the logged items' enabled sets, which is why the
    checkpoint manifest only needs the edge list.  A ``control``
    (:class:`~repro.engine.runtime.RunControl`) adds deadline/cancellation
    checks and periodic resumable checkpoints.

    ``resume_from`` (a ``gspn`` checkpoint whose reopened spool is
    ``store``) continues that exploration: markings and the vanishing set
    from the store's ``(vec, enabled)`` item log, the edge prefix from the
    manifest, then the frontier loop from the saved cursor.
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

    if resume_from is not None:
        for index, (vec, enabled) in enumerate(store.items_range(0, store.item_count)):
            markings.append(tables.to_marking(vec))
            note_vanishing(index, enabled)
        edges.extend(tuple(edge) for edge in resume_from.manifest["extra"]["edges"])

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
        start_cursor=_cursor(resume_from),
    )
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "GSPN marking-graph build")
    return markings, edges, vanishing, stats


__all__ = ["compiled_marking_graph"]
