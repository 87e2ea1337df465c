"""Early-terminating reachability queries: answers without the full graph.

Every public builder materializes the complete reachability graph before a
question can be asked of it — wasted work when the question is a yes/no one
(*is this marking reachable? can this place exceed k tokens? is there a
deadlock?*) whose witness may sit a few BFS levels from the initial
marking.  This module drives the exact same frontier loop the builders use
(:func:`repro.engine.frontier.explore` over the stock
:class:`~repro.engine.frontier.UntimedKernel`) but with a *stop predicate*:
the exploration ends at the first state satisfying the query, in BFS order,
so the returned witness additionally has minimal firing-sequence depth.

Three properties distinguish a query from a build:

* **early exit** — only the states up to the first witness are explored
  (``QueryResult.states_explored`` reports how many; a full build explores
  all of them);
* **replayable witness path** — every explored state logs its BFS-tree
  parent and discovering transition, so the witness comes with the firing
  sequence from the initial marking (:attr:`QueryResult.path`), verifiable
  by replaying it through :meth:`~repro.petri.net.TimedPetriNet.fire_untimed`
  (:meth:`QueryResult.replay`);
* **bounded memory** — the dedup index and the parent-annotated item log
  live in a :class:`~repro.engine.store.DiskStateStore` (a pure in-memory
  one by default; pass ``store="disk"``/``spill_threshold=`` to spill past
  a threshold), and the per-vector enabled-set memo is disabled
  (``memoize_enabled=False``), so a query over a state space bigger than
  RAM holds only the spill buffers resident.

The CLI front end is the ``query`` subcommand (``--reachable``,
``--deadlock``, ``--bound``, ``--stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple, Union

from ..exceptions import PerformanceError, StoreError
from ..petri.marking import Marking
from ..petri.net import TimedPetriNet
from .frontier import FrontierStats, UntimedKernel, explore, untimed_limits
from .runtime import CheckpointWriter, build_store, raise_interrupted
from .store import DiskStateStore
from .tables import NetTables
from .untimed import _cursor


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one early-terminating query.

    ``found`` says whether a witness state was reached; when it was,
    ``witness`` is the witness :class:`~repro.petri.marking.Marking` and
    ``path`` the transition firing sequence that reaches it from the
    initial marking (empty when the initial marking itself is the witness).
    ``witness_depth == len(path)`` is the BFS depth, minimal by
    construction.  When no witness exists, the exploration ran to
    completion and ``states_explored`` equals the full reachable state
    count — a definitive *no*, not a timeout.
    """

    found: bool
    witness: Optional[Marking]
    path: Tuple[str, ...]
    states_explored: int
    edges_explored: int
    spill_bytes: int
    seconds: float
    stats: FrontierStats = field(repr=False, compare=False, default=None)

    @property
    def witness_depth(self) -> Optional[int]:
        """Length of the witness firing sequence (``None`` when not found)."""
        return len(self.path) if self.found else None

    def replay(self, net: TimedPetriNet) -> Marking:
        """Fire :attr:`path` from the initial marking and return the result.

        Raises if the query did not find a witness; the returned marking
        always equals :attr:`witness` (the path is exact, not heuristic).
        """
        if not self.found:
            raise ValueError("query found no witness; there is no path to replay")
        marking = net.initial_marking
        for transition in self.path:
            marking = net.fire_untimed(marking, transition)
        return marking

    def as_dict(self) -> dict:
        """Flat telemetry dict (the CLI's ``--stats`` payload)."""
        return {
            "found": self.found,
            "witness_depth": self.witness_depth,
            "path": list(self.path),
            "states_explored": self.states_explored,
            "edges_explored": self.edges_explored,
            "spill_bytes": self.spill_bytes,
            "seconds": self.seconds,
        }


class _TracedKernel:
    """Wraps :class:`UntimedKernel` items with ``(parent, transition)``.

    The witness path must be reconstructible after the exploration stops,
    including when the item log spilled to disk — so the BFS-tree parent
    index and discovering transition ride inside the logged items
    themselves instead of a resident side table.  Traced items are
    ``(inner_item, parent_index, transition_index)``.
    """

    def __init__(self, base: UntimedKernel):
        self.base = base

    def seed(self):
        return (self.base.seed(), -1, -1)

    def expand(self, index: int, item):
        inner = item[0]
        for transition, successor in self.base.expand(index, inner):
            yield transition, (successor, index, transition)


def _target_vector(net: TimedPetriNet, target) -> Tuple[int, ...]:
    """Normalize a target ``Marking`` / place→count mapping to a vector.

    A mapping only needs to name the places with nonzero counts; unknown
    place names are rejected rather than ignored.
    """
    if isinstance(target, Marking):
        return tuple(int(v) for v in target.to_vector())
    if isinstance(target, Mapping):
        unknown = sorted(set(target) - set(net.place_order))
        if unknown:
            raise ValueError(f"target names unknown place(s): {', '.join(unknown)}")
        return tuple(int(target.get(place, 0)) for place in net.place_order)
    raise TypeError(
        f"target must be a Marking or a place->count mapping, got {type(target).__name__}"
    )


def search(
    net: TimedPetriNet,
    predicate: Callable[[Marking], bool],
    *,
    max_states: int = 100_000,
    store=None,
    spill_threshold: Optional[int] = None,
    control=None,
) -> QueryResult:
    """First reachable marking satisfying ``predicate``, in BFS order.

    The predicate receives a :class:`~repro.petri.marking.Marking` per
    *newly discovered* state (each state is tested exactly once); the
    specialized queries below avoid that per-state materialization by
    testing raw token vectors.  A ``control`` bounds the search by
    deadline/cancellation; checkpointing is rejected because an arbitrary
    predicate cannot be serialized into a manifest — use the named queries
    (:func:`is_reachable`, :func:`bound_check`, :func:`find_deadlock`) for
    resumable runs.
    """
    tables = NetTables.of(net)

    def stop(vec, enabled) -> bool:
        return bool(predicate(tables.to_marking(vec)))

    return _run_query(net, stop, max_states, store, spill_threshold, control=control)


def is_reachable(
    net: TimedPetriNet,
    target: Union[Marking, Mapping[str, int]],
    *,
    max_states: int = 100_000,
    store=None,
    spill_threshold: Optional[int] = None,
    control=None,
) -> QueryResult:
    """Is ``target`` (a marking, or a place→count mapping) reachable?

    Stops at the first occurrence of the exact target marking; ``found``
    False means the target is unreachable (the whole state space was
    enumerated without it).
    """
    spec = {"query": "is_reachable", "target": list(_target_vector(net, target))}
    return _run_query(
        net,
        _stop_from_spec(net, spec),
        max_states,
        store,
        spill_threshold,
        control=control,
        spec=spec,
    )


def bound_check(
    net: TimedPetriNet,
    place: str,
    k: int,
    *,
    max_states: int = 100_000,
    store=None,
    spill_threshold: Optional[int] = None,
    control=None,
) -> QueryResult:
    """Can ``place`` ever hold more than ``k`` tokens?

    ``found`` True returns the violating marking and the firing path to it;
    ``found`` False is a proof that the place is ``k``-bounded (the full
    reachable space was enumerated).
    """
    if place not in net.place_order:
        raise ValueError(f"unknown place {place!r}")
    spec = {"query": "bound_check", "place": place, "k": int(k)}
    return _run_query(
        net,
        _stop_from_spec(net, spec),
        max_states,
        store,
        spill_threshold,
        control=control,
        spec=spec,
    )


def find_deadlock(
    net: TimedPetriNet,
    *,
    max_states: int = 100_000,
    store=None,
    spill_threshold: Optional[int] = None,
    control=None,
) -> QueryResult:
    """First reachable dead marking (no transition enabled), if any.

    The kernel items already carry each state's incrementally derived
    enabled set, so the test is a truth check — no transition rescan.
    ``found`` False proves the net deadlock-free under the atomic rule.
    """
    spec = {"query": "find_deadlock"}
    return _run_query(
        net,
        _stop_from_spec(net, spec),
        max_states,
        store,
        spill_threshold,
        control=control,
        spec=spec,
    )


def _stop_from_spec(
    net: TimedPetriNet, spec: dict
) -> Callable[[Tuple[int, ...], Tuple[int, ...]], bool]:
    """Rebuild a named query's stop predicate from its manifest spec."""
    kind = spec["query"]
    if kind == "is_reachable":
        target_vec = tuple(int(v) for v in spec["target"])
        return lambda vec, enabled: vec == target_vec
    if kind == "bound_check":
        place_index = net.place_order.index(spec["place"])
        k = int(spec["k"])
        return lambda vec, enabled: vec[place_index] > k
    if kind == "find_deadlock":
        return lambda vec, enabled: not enabled
    raise StoreError(f"unknown query spec {kind!r} in checkpoint manifest")


def _run_query(
    net: TimedPetriNet,
    stop_vec: Callable[[Tuple[int, ...], Tuple[int, ...]], bool],
    max_states: int,
    store,
    spill_threshold: Optional[int],
    *,
    control=None,
    spec: Optional[dict] = None,
) -> QueryResult:
    """Drive the shared frontier loop until ``stop_vec`` hits or the space
    is exhausted, then reconstruct the witness path from the item log."""
    if net.is_symbolic:
        raise PerformanceError(
            "reachability queries require a numeric net; bind symbols first"
        )
    if control is not None and control.wants_checkpoint and spec is None:
        raise ValueError(
            "checkpointing a predicate search is not supported (the predicate "
            "cannot be serialized into a manifest); use is_reachable / "
            "bound_check / find_deadlock, or drop checkpoint_dir"
        )
    from . import ENGINE_COMPILED

    resolved, owned = build_store(
        ENGINE_COMPILED, store, spill_threshold=spill_threshold, control=control
    )
    if resolved is None:
        # Queries always route dedup and the parent-annotated item log
        # through a store so the witness path is reconstructible after
        # the loop; without an explicit one, a never-spilling in-memory
        # store costs what the builders' plain dicts cost.
        resolved, owned = DiskStateStore(spill_threshold=None), True
    try:
        return _drive_query(
            net, stop_vec, max_states, resolved, control=control, spec=spec
        )
    finally:
        if owned:
            resolved.close()


def _drive_query(
    net: TimedPetriNet,
    stop_vec: Callable[[Tuple[int, ...], Tuple[int, ...]], bool],
    max_states: int,
    resolved: DiskStateStore,
    *,
    control=None,
    spec: Optional[dict] = None,
    resume_from=None,
) -> QueryResult:
    """The query core shared by cold runs and checkpoint resumes
    (``resume_from`` continues from its saved cursor over its reopened
    spool, see :func:`repro.engine.runtime.resume`)."""
    tables = NetTables.of(net)
    kernel = _TracedKernel(UntimedKernel(tables, memoize_enabled=False))
    witness: dict = {"index": None, "item": None}

    def intern(item, _parent: int) -> Tuple[int, bool]:
        return resolved.intern(item[0][0])

    def on_edge(_source: int, _target: int, _transition: int) -> None:
        pass

    def stop(index: int, item) -> bool:
        (vec, enabled), _parent, _transition = item
        if stop_vec(vec, enabled):
            witness["index"] = index
            witness["item"] = item
            return True
        return False

    writer = None
    if control is not None and control.wants_checkpoint:
        writer = CheckpointWriter(
            control,
            kind="query",
            net=net,
            params={"max_states": max_states, "spec": dict(spec)},
            extra=lambda: {},
            store=resolved,
        )
    stats = explore(
        kernel,
        intern,
        on_edge,
        untimed_limits(max_states),
        stats=FrontierStats(engine="query"),
        store=resolved,
        stop=stop,
        control=control,
        checkpoint=writer.write if writer is not None else None,
        start_cursor=_cursor(resume_from),
    )
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "reachability query")
    found = witness["index"] is not None
    witness_marking = None
    path: Tuple[str, ...] = ()
    if found:
        names = tables.transition_names
        (vec, _enabled), parent, transition = witness["item"]
        witness_marking = tables.to_marking(vec)
        reversed_path = []
        while parent >= 0:
            reversed_path.append(names[transition])
            (_vec, _enabled), parent, transition = resolved.item_at(parent)
        path = tuple(reversed(reversed_path))
    return QueryResult(
        found=found,
        witness=witness_marking,
        path=path,
        states_explored=stats.states,
        edges_explored=stats.edges,
        spill_bytes=stats.spill_bytes,
        seconds=stats.seconds,
        stats=stats,
    )


__all__ = [
    "QueryResult",
    "bound_check",
    "find_deadlock",
    "is_reachable",
    "search",
]
