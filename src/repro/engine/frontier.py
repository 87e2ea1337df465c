"""The shared frontier-exploration core of every graph construction.

Historically each compiled builder carried its own copy of the same BFS
skeleton — intern the seed, expand states in FIFO order, deduplicate
successors, append edges, enforce a ``max_states`` valve:
:mod:`repro.engine.untimed` (reachability *and* Karp–Miller coverability),
:mod:`repro.engine.gspn` and :mod:`repro.reachability.compiled` all
re-implemented it.  This module factors that loop out once:

* :func:`explore` — the one scalar frontier loop, serving in-memory,
  store-backed, early-terminating (query) and controlled (deadline,
  cancellation, checkpoint) runs alike.  It is the single place that owns
  the FIFO contract every engine is held to: the seed is
  interned first, states are expanded in interning order, successors are
  interned before their edge is reported (in the kernel's emission order),
  and the ``max_states`` valve fires *after* the edge that pushed the count
  over the limit — bit for bit the behaviour of the historical per-builder
  loops.
* the **kernel protocol** — the per-semantics part.  A kernel provides
  ``seed()`` and ``expand(index, item) -> iterable[(edge_data, successor)]``.
  :class:`UntimedKernel`, :class:`GSPNKernel` and :class:`TimedKernel` live
  here so the builders, the query layer and resume expand states through
  literally the same code.
* :class:`ExploreLimits` — the ``max_states`` valve with its
  builder-specific :class:`~repro.exceptions.UnboundedNetError` message
  (one constructor per graph family, so the scalar and batched backends
  fail with identical messages).
* :class:`FrontierStats` — construction telemetry (states/second, mean
  batch width, dedup hit rate) surfaced by the builders' ``build_stats()``.

The *batched* level-expansion loop — the numpy payoff kernel that expands a
whole frontier as a ``(frontier × transitions)`` enabledness mask — builds
on this module and lives in :mod:`repro.engine.batched`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Tuple

from ..exceptions import UnboundedNetError
from . import faults
from .tables import NetTables


@dataclass
class FrontierStats:
    """Construction telemetry of one frontier exploration.

    ``expanded`` counts state expansions and ``batches`` the expansion
    batches: the scalar loop expands one state per batch (mean batch width
    1.0), the batched kernel one BFS level per batch.  ``dedup_hits`` counts
    successor candidates that resolved to an already-interned state; the
    number of *misses* is by definition the number of interned states.
    """

    engine: str
    states: int = 0
    edges: int = 0
    expanded: int = 0
    batches: int = 0
    dedup_hits: int = 0
    seconds: float = 0.0
    spilled_states: int = 0
    spill_bytes: int = 0
    #: Expansion cursor at which the run stopped early, or ``None`` when it
    #: ran to completion (set only by control-interrupted explorations).
    interrupted_at: object = None
    #: ``"deadline"`` or the cancellation reason, ``None`` when completed.
    interrupt_reason: object = None

    @property
    def states_per_second(self) -> float:
        """Interned states per wall-clock second of construction."""
        return self.states / self.seconds if self.seconds > 0 else 0.0

    @property
    def mean_batch_width(self) -> float:
        """Average number of states expanded per batch (1.0 for scalar loops)."""
        return self.expanded / self.batches if self.batches else 0.0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of successor candidates that were already interned."""
        lookups = self.dedup_hits + self.states
        return self.dedup_hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        """Flat dict of the counters plus the derived rates (for reports/CLI)."""
        return {
            "engine": self.engine,
            "states": self.states,
            "edges": self.edges,
            "batches": self.batches,
            "seconds": self.seconds,
            "states_per_second": self.states_per_second,
            "mean_batch_width": self.mean_batch_width,
            "dedup_hit_rate": self.dedup_hit_rate,
            "spilled_states": self.spilled_states,
            "spill_bytes": self.spill_bytes,
            "interrupted_at": self.interrupted_at,
            "interrupt_reason": self.interrupt_reason,
        }


@dataclass(frozen=True)
class ExploreLimits:
    """State-count valve of a construction, with its exact failure message."""

    max_states: int
    message: str

    def check(self, count: int) -> None:
        """Raise :class:`UnboundedNetError` when ``count`` exceeds the bound."""
        if count > self.max_states:
            raise UnboundedNetError(self.message)


def untimed_limits(max_states: int) -> ExploreLimits:
    """The valve of the untimed reachability builders (all engines)."""
    return ExploreLimits(
        max_states,
        f"untimed reachability exceeded {max_states} markings; the net "
        "is unbounded or the bound is too small",
    )


def coverability_limits(max_nodes: int) -> ExploreLimits:
    """The valve of the Karp–Miller coverability builders."""
    return ExploreLimits(
        max_nodes, f"coverability construction exceeded {max_nodes} nodes"
    )


def gspn_limits(max_states: int) -> ExploreLimits:
    """The valve of the GSPN marking-graph builders (all engines)."""
    return ExploreLimits(
        max_states, f"GSPN marking graph exceeded {max_states} markings"
    )


def timed_limits(max_states: int) -> ExploreLimits:
    """The valve of the timed reachability builders (all engines)."""
    return ExploreLimits(
        max_states,
        f"timed reachability graph exceeded {max_states} states; "
        "the net may be unbounded under the timed semantics or the "
        "bound is too small",
    )


def explore(
    kernel,
    intern: Callable[[object, int], Tuple[int, bool]],
    on_edge: Callable[[int, int, object], None],
    limits: ExploreLimits,
    *,
    stats: FrontierStats = None,
    store=None,
    stop: Callable[[int, object], bool] = None,
    control=None,
    checkpoint: Callable[[int], None] = None,
    start_cursor: int = 0,
) -> FrontierStats:
    """The generic frontier loop shared by every scalar builder.

    ``kernel`` provides the semantics (``seed()`` and
    ``expand(index, item)``); ``intern(item, parent_index)`` deduplicates a
    work item into the builder's graph and returns ``(index, is_new)``
    (``parent_index`` is ``-1`` for the seed — only the coverability
    builder, whose acceleration rule walks the BFS-tree ancestor chain,
    uses it); ``on_edge(source, target, edge_data)`` records one edge.

    ``store`` (a :class:`~repro.engine.store.DiskStateStore`) moves the
    FIFO item log out of the in-process list: past the store's spill
    threshold the pending work items live in SQLite and only the current
    item plus one write buffer stay resident, so the BFS continues past RAM
    — the expansion/interning order is untouched, the built graph is bit
    identical.  ``stop(index, item)`` is the query layer's early-exit
    valve: it is evaluated for every *newly interned* item (the seed
    included), immediately after the discovering edge was reported, and
    ends the exploration as soon as it returns true — the first witness in
    BFS order, without building the rest of the graph.

    ``control`` (a :class:`~repro.engine.runtime.RunControl`) adds the
    robustness valves: the deadline/cancellation token is polled before
    every expansion and stops the run at that item boundary (setting
    ``stats.interrupt_reason``/``interrupted_at`` instead of raising, so
    the builder can write its final checkpoint first), ``checkpoint`` is
    invoked with the cursor whenever a periodic checkpoint is due, and
    ``start_cursor`` resumes expansion mid-log — item ``[0, start_cursor)``
    are taken as already expanded, which is exactly the state a checkpoint
    captures.  Control checks, periodic checkpoints and injected faults all
    happen at item boundaries (before an expansion), so an interrupted log
    is always a clean prefix of the uninterrupted one.

    The FIFO contract: items are expanded in interning order, each
    successor is interned before its edge is reported, and the valve fires
    after the edge that pushed the count over ``limits``.
    """
    if stats is None:
        stats = FrontierStats(engine="scalar")
    start = time.perf_counter()
    if store is not None:
        append_item = store.append_item
        item_at = store.item_at
        item_count = lambda: store.item_count  # noqa: E731
    else:
        items: List[object] = []
        append_item = items.append
        item_at = items.__getitem__
        item_count = items.__len__
    halted = False
    interrupted = None
    seed = kernel.seed()
    seed_index, seed_new = intern(seed, -1)
    if seed_new:
        append_item(seed)
        if stop is not None and stop(seed_index, seed):
            halted = True
    if control is not None:
        control._begin(start_cursor)
    cursor = start_cursor
    edges = 0
    hits = 0
    while not halted and cursor < item_count():
        if faults._PLAN is not None:
            faults.on_expansion(cursor)
        if control is not None:
            interrupted = control._pulse(cursor, item_count(), edges)
            if interrupted is not None:
                break
            if checkpoint is not None and control._due_checkpoint(cursor):
                checkpoint(cursor)
        index = cursor
        cursor += 1
        item = item_at(index)
        for data, successor in kernel.expand(index, item):
            target, is_new = intern(successor, index)
            on_edge(index, target, data)
            edges += 1
            if is_new:
                append_item(successor)
                limits.check(item_count())
                if stop is not None and stop(target, successor):
                    halted = True
                    break
            else:
                hits += 1
    stats.states = item_count()
    stats.edges = edges
    stats.expanded = cursor - start_cursor
    stats.batches = cursor - start_cursor
    stats.dedup_hits = hits
    if interrupted is not None:
        stats.interrupted_at = cursor
        stats.interrupt_reason = interrupted
    if store is not None:
        store.flush()
        stats.spilled_states = max(len(store), store.item_count) if store.spilled else 0
        stats.spill_bytes = store.spill_bytes()
    stats.seconds = time.perf_counter() - start
    return stats


# ---------------------------------------------------------------------------
# Per-semantics kernels
# ---------------------------------------------------------------------------


class UntimedKernel:
    """Atomic-firing (untimed) semantics over ``(vec, enabled)`` items.

    Edge data is the fired transition's index.  The successor's enabled set
    is derived *incrementally* from the parent's (only consumers of changed
    places are re-tested, memoized per vector) and travels with the item,
    so no consumer ever falls back to a full transition rescan.

    ``memoize_enabled=False`` turns the per-vector enabled-set memo off:
    the enabled set is a pure function of the vector so results are
    unchanged, but bounded-memory explorations (the query layer, spilled
    builds) avoid growing a cache proportional to the whole state space.
    """

    def __init__(self, tables: NetTables, *, memoize_enabled: bool = True):
        self.tables = tables
        self.memoize_enabled = memoize_enabled

    def seed(self):
        vec = self.tables.initial_vector()
        return (vec, self.tables.enabled_transitions(vec, memoize=self.memoize_enabled))

    def expand(self, index: int, item) -> Iterable:
        vec, enabled = item
        tables = self.tables
        memoize = self.memoize_enabled
        for transition in enabled:
            successor = tables.fire_atomic(vec, transition)
            yield transition, (
                successor,
                tables.derive_enabled(
                    enabled,
                    successor,
                    tables.delta_places[transition],
                    memoize=memoize,
                ),
            )


class GSPNKernel(UntimedKernel):
    """GSPN race semantics: immediate preemption plus capacity truncation.

    Immediate transitions pre-empt timed ones (only the immediate members
    of the enabled set fire when any is enabled), and successors that would
    exceed ``place_capacity`` tokens in any place are truncated away.
    """

    def __init__(self, tables: NetTables, *, is_immediate, place_capacity):
        super().__init__(tables)
        self.is_immediate = is_immediate
        self.place_capacity = place_capacity

    def expand(self, index: int, item) -> Iterable:
        vec, enabled = item
        if not enabled:
            return
        immediate_enabled = [t for t in enabled if self.is_immediate[t]]
        chosen = immediate_enabled if immediate_enabled else enabled
        tables = self.tables
        place_capacity = self.place_capacity
        for transition in chosen:
            successor = tables.fire_atomic(vec, transition)
            if place_capacity is not None and any(
                count > place_capacity for count in successor
            ):
                continue
            yield transition, (
                successor,
                tables.derive_enabled(
                    enabled,
                    successor,
                    tables.delta_places[transition],
                    memoize=self.memoize_enabled,
                ),
            )


class TimedKernel:
    """Figure-3 timed semantics over compiled timed states.

    Wraps a :class:`~repro.reachability.compiled.CompiledSuccessorEngine`;
    edge data is the complete successor payload — delay, probability,
    fired/completed transitions, step kind and used-constraint labels —
    computed with exact arithmetic.
    """

    def __init__(self, engine):
        self.engine = engine

    def seed(self):
        return self.engine.initial_state()

    def expand(self, index: int, state) -> Iterable:
        for edge in self.engine.successors(state):
            yield (
                (
                    edge.delay,
                    edge.probability,
                    edge.fired,
                    edge.completed,
                    edge.kind,
                    edge.used_constraints,
                ),
                edge.target,
            )


__all__ = [
    "ExploreLimits",
    "FrontierStats",
    "GSPNKernel",
    "TimedKernel",
    "UntimedKernel",
    "coverability_limits",
    "explore",
    "gspn_limits",
    "timed_limits",
    "untimed_limits",
]
