"""Numpy level-batched successor kernel on the shared frontier core.

The scalar engines expand one state per step; this module expands a whole
BFS level at once.  :class:`~repro.engine.tables.NetTables` grows dense
incidence matrices (``input_matrix`` — the per-transition guard rows — and
``delta_matrix``), the frontier window ``[cursor, n)`` is tested against
every transition at once — a ``(frontier × transitions)`` enabledness mask
computed by per-arc-weight deficiency matmuls — and marking updates,
deduplication and edge emission are all vectorized.

FIFO equivalence with the scalar loop is structural, not incidental:

* ``np.nonzero`` on the mask walks candidates in row-major order, i.e. in
  ``(parent index, transition index)`` order — exactly the emission order
  of the scalar cursor loop;
* new states are numbered by the *first occurrence* of their key within
  the candidate stream, which is precisely the order the scalar loop would
  have interned them;
* the ``max_states`` valve fires once a level pushes the interned count
  over the bound, after that level's edges are recorded — the same
  observable failure as the scalar loop (the differential harness checks
  the error message, not the partially built graph).

``tests/engine_diff.py`` gates all of this bit-for-bit on every bundled
workload.

Deduplication packs each token vector into a single ``int64`` key using
per-place bit fields sized from the running token maxima *plus one-step
headroom* (the largest positive delta into each place), so every successor
of an interned state is guaranteed to fit the current layout; successor
keys are then pure arithmetic — ``key[parent] + delta_key[transition]`` —
and no successor matrix is materialized unless a capacity filter needs it.
When the running maxima grow past a field, the table repacks; when a net's
token counts exceed the 62-bit budget (wide nets, or token pumps on their
way to the ``max_states`` valve), it falls back to a Python dict over
vector tuples mid-run and keeps going.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..exceptions import UnboundedNetError
from . import faults
from .frontier import ExploreLimits, FrontierStats, gspn_limits, untimed_limits
from .runtime import CheckpointWriter, raise_interrupted
from .store import DiskStateStore
from .tables import NetTables

#: Archived rows are read back from the disk store in chunks of this many
#: states (repack, unpackable fallback, final assembly).
_ARCHIVE_CHUNK = 4096


class _VectorTable:
    """Growable dense state table with packed-key dedup.

    States are rows of the matrix in FIFO interning order.  While
    ``packable`` holds, dedup runs on packed ``int64`` keys — computed
    vectorized, then resolved through ``key_index`` (a plain int dict, which
    beats any sort-based scheme at typical frontier widths and yields
    first-occurrence FIFO numbering by construction); otherwise on
    ``index_of``, the same dict over vector tuples.

    With a :class:`~repro.engine.store.DiskStateStore` the dense matrix
    becomes a sliding window: once the interned count crosses the store's
    spill threshold, rows behind the current frontier are archived into the
    store's FIFO item log at level boundaries (:meth:`archive_below`) and
    the resident matrix keeps only ``[archived, count)`` — the level loop
    never touches earlier rows, so the exploration is unchanged bit for
    bit.  The packed-key dict and per-state key array stay resident (8+
    bytes per state versus ``places × 8`` for the vectors; the tuple-dict
    fallback of :meth:`_go_unpackable` likewise keeps its dict resident),
    so spilling bounds the dominant dense-matrix term, not the dedup index.
    Rare whole-table passes (:meth:`_repack` re-keying, the unpackable
    flip, final :meth:`vectors` assembly) stream archived rows back in
    chunks.
    """

    #: Packed keys must stay inside a signed int64; the sign bit is never
    #: used because token counts are non-negative.
    _KEY_BITS = 62

    def __init__(
        self,
        seed: np.ndarray,
        delta_matrix: np.ndarray,
        store: Optional[DiskStateStore] = None,
    ):
        self.place_count = seed.shape[0]
        self.delta_matrix = delta_matrix
        self.store = store
        self.archived = 0
        # Per-place headroom: the largest one-step token increase, so any
        # successor of an interned state fits the current bit layout.
        if delta_matrix.shape[0]:
            self.outmax = np.maximum(delta_matrix, 0).max(axis=0)
        else:
            self.outmax = np.zeros(self.place_count, dtype=np.int64)
        self.capacity = 1024
        self.matrix = np.zeros((self.capacity, self.place_count), dtype=np.int64)
        self.matrix[0] = seed
        self.count = 1
        self.running_max = seed.copy()
        self.packable = True
        self.index_of: Optional[dict] = None
        self.widths = np.ones(self.place_count, dtype=np.int64)
        self.weights: Optional[np.ndarray] = None
        self.delta_keys: Optional[np.ndarray] = None
        self.keys = np.zeros(self.capacity, dtype=np.int64)
        self.key_index: Optional[dict] = None
        self._repack()

    # -- archived-row access --------------------------------------------

    def _archived_chunks(self):
        """Stream the archived rows back as ``(base_index, matrix)`` chunks."""
        buffer: List[tuple] = []
        base = 0
        for row in self.store.items_range(0, self.archived):
            buffer.append(row)
            if len(buffer) == _ARCHIVE_CHUNK:
                yield base, np.asarray(buffer, dtype=np.int64)
                base += len(buffer)
                buffer = []
        if buffer:
            yield base, np.asarray(buffer, dtype=np.int64)

    def row_of(self, index: int) -> tuple:
        """State ``index`` as a token-vector tuple (resident or archived)."""
        if index >= self.archived:
            return tuple(self.matrix[index - self.archived].tolist())
        return self.store.item_at(index)

    def archive_below(self, boundary: int) -> None:
        """Move rows ``[archived, boundary)`` into the disk store.

        Called at level ends with ``boundary`` = the next level's first
        state, so the resident window always contains the whole frontier.
        A no-op until the interned count crosses the store's threshold.
        """
        store = self.store
        if store is None or boundary <= self.archived:
            return
        threshold = store.spill_threshold
        if threshold is not None and self.count <= threshold:
            return
        drop = boundary - self.archived
        resident = self.count - self.archived
        for row in self.matrix[:drop].tolist():
            store.append_item(tuple(row))
        self.matrix[: resident - drop] = self.matrix[drop:resident].copy()
        self.keys[: resident - drop] = self.keys[drop:resident].copy()
        self.archived = boundary

    def vectors(self) -> np.ndarray:
        """The full ``(count × places)`` state matrix in interning order."""
        if not self.archived:
            return self.matrix[: self.count]
        parts = [chunk for _base, chunk in self._archived_chunks()]
        parts.append(self.matrix[: self.count - self.archived])
        return np.concatenate(parts)

    # -- key layout -----------------------------------------------------

    def _repack(self) -> None:
        """Recompute the per-place bit fields from the running maxima (plus
        headroom) and rebuild every derived key, or fall back to the dict
        when the layout no longer fits 62 bits.

        Whatever the minimal layout leaves of the 62-bit budget is handed
        out as growth headroom (round-robin, one bit per place), so slowly
        ramping token counts trigger O(log growth) repacks instead of one
        per new maximum.  Packability is unaffected: the fallback condition
        is still "the *minimal* widths exceed the budget".
        """
        limit = self.running_max + self.outmax
        widths = np.array(
            [max(1, int(value).bit_length()) for value in limit.tolist()],
            dtype=np.int64,
        )
        total = int(widths.sum())
        if total > self._KEY_BITS:
            self._go_unpackable()
            return
        spare = self._KEY_BITS - total
        if spare:
            places = self.place_count
            widths += spare // places
            widths[: spare % places] += 1
        self.widths = widths
        shifts = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(widths)[:-1]))
        self.weights = np.left_shift(np.int64(1), shifts)
        self.delta_keys = self.delta_matrix @ self.weights
        # The layout is injective over every in-range vector, so the key
        # dict is a faithful vector dict; rebuild it under the new layout
        # (streaming archived rows back, root-first, when spilled).
        key_index: dict = {}
        for base, chunk in self._archived_chunks() if self.archived else ():
            chunk_keys = chunk @ self.weights
            for offset, key in enumerate(chunk_keys.tolist()):
                key_index[key] = base + offset
        resident = self.count - self.archived
        self.keys[:resident] = self.matrix[:resident] @ self.weights
        for offset, key in enumerate(self.keys[:resident].tolist()):
            key_index[key] = self.archived + offset
        self.key_index = key_index

    def _go_unpackable(self) -> None:
        self.packable = False
        index_of: dict = {}
        for base, chunk in self._archived_chunks() if self.archived else ():
            for offset, row in enumerate(chunk.tolist()):
                index_of[tuple(row)] = base + offset
        resident = self.count - self.archived
        for offset, row in enumerate(self.matrix[:resident].tolist()):
            index_of[tuple(row)] = self.archived + offset
        self.index_of = index_of
        self.weights = None
        self.delta_keys = None
        self.key_index = None

    def _ensure(self, needed: int) -> None:
        """Grow the resident window to hold ``needed - archived`` rows."""
        needed -= self.archived
        if needed <= self.capacity:
            return
        while self.capacity < needed:
            self.capacity *= 2
        resident = self.count - self.archived
        matrix = np.zeros((self.capacity, self.place_count), dtype=np.int64)
        matrix[:resident] = self.matrix[:resident]
        self.matrix = matrix
        keys = np.zeros(self.capacity, dtype=np.int64)
        keys[:resident] = self.keys[:resident]
        self.keys = keys

    # -- dedup ----------------------------------------------------------

    def resolve(self, candidate_keys: np.ndarray, new_rows_of) -> tuple:
        """Map one level's candidate keys (in emission order) to state
        indices, interning unseen states by first occurrence.

        ``new_rows_of(positions)`` must return the candidate *rows* at the
        given positions within the candidate stream (called once, with the
        first occurrence of each new key in FIFO rank order).  Returns
        ``(targets, new_count)``.
        """
        key_index = self.key_index
        setdefault = key_index.setdefault
        base = self.count
        # One C-speed dict walk.  ``len(key_index)`` is evaluated *before*
        # each call and the dict holds exactly one entry per interned state,
        # so the first occurrence of every unseen key gets the next free
        # index — the scalar interning order, by construction.
        targets = np.asarray(
            [setdefault(key, len(key_index)) for key in candidate_keys.tolist()],
            dtype=np.int64,
        )
        new_count = len(key_index) - base
        if new_count:
            # First occurrence of each new index: scatter the referencing
            # positions in reverse, so the earliest position wins.
            referencing = np.flatnonzero(targets >= base)[::-1]
            positions = np.empty(new_count, dtype=np.int64)
            positions[targets[referencing] - base] = referencing
            rows = np.asarray(new_rows_of(positions), dtype=np.int64)
            self._append(rows, candidate_keys[positions])
        return targets, new_count

    def _append(self, rows: np.ndarray, row_keys: np.ndarray) -> None:
        """Intern ``rows`` (keys in FIFO rank order, already in the dict)."""
        base = self.count
        added = rows.shape[0]
        self._ensure(base + added)
        offset = base - self.archived
        self.matrix[offset : offset + added] = rows
        self.count = base + added
        self.keys[offset : offset + added] = row_keys
        new_max = np.maximum(self.running_max, rows.max(axis=0))
        if (new_max > self.running_max).any():
            self.running_max = new_max
            if ((new_max + self.outmax) >= np.left_shift(np.int64(1), self.widths)).any():
                # Re-key the whole table (rebuilds the key dict under the
                # new layout) — or flip to the tuple-dict fallback.
                self._repack()

    def resolve_rows(self, rows: np.ndarray) -> tuple:
        """Dict-based dedup used once the packed-key budget is exceeded."""
        index_of = self.index_of
        targets = np.empty(rows.shape[0], dtype=np.int64)
        new_rows: List[tuple] = []
        base = self.count
        for position, row in enumerate(map(tuple, rows.tolist())):
            index = index_of.get(row)
            if index is None:
                index = base + len(new_rows)
                index_of[row] = index
                new_rows.append(row)
            targets[position] = index
        if new_rows:
            added = len(new_rows)
            self._ensure(base + added)
            offset = base - self.archived
            self.matrix[offset : offset + added] = new_rows
            self.count = base + added
        return targets, len(new_rows)


def _table_from_rows(
    rows: np.ndarray,
    delta_matrix: np.ndarray,
    store: Optional[DiskStateStore] = None,
) -> _VectorTable:
    """Rebuild a :class:`_VectorTable` from a checkpoint's state matrix.

    The rows are re-interned in their saved (FIFO) order, reproducing the
    exact numbering.  The key layout is pre-widened to the *global* row
    maxima first: incremental replay would size the bit fields from the
    running maxima plus one-step headroom, and a saved row far beyond the
    early maxima could alias a packed key mid-load.  With the global maxima
    folded in, every saved row fits the layout (or the table flips to the
    tuple-dict fallback, which needs no layout at all).
    """
    table = _VectorTable(rows[0], delta_matrix, store)
    if rows.shape[0] > 1:
        table.running_max = np.maximum(table.running_max, rows.max(axis=0))
        table._repack()
        position = 1
        while position < rows.shape[0]:
            chunk = rows[position : position + _ARCHIVE_CHUNK]
            if table.packable:
                keys = chunk @ table.weights
                table.resolve(
                    keys, lambda positions, chunk=chunk: chunk[positions]
                )
            else:
                table.resolve_rows(chunk)
            position += chunk.shape[0]
    return table


def _explore_batched(
    tables: NetTables,
    limits: ExploreLimits,
    stats: FrontierStats,
    *,
    is_immediate=None,
    place_capacity=None,
    store: Optional[DiskStateStore] = None,
    control=None,
    writer: Optional[CheckpointWriter] = None,
    resume_from=None,
):
    """The level-batched frontier loop over plain token vectors.

    Returns ``(vectors, edge_sources, edge_targets, edge_transitions,
    vanishing_flags)`` as numpy arrays (``vanishing_flags`` is ``None``
    outside GSPN semantics).  A ``store`` turns the dense state matrix into
    a sliding resident window (rows behind the frontier archive to disk at
    level boundaries) without changing the exploration.

    A ``control`` is polled at level boundaries; on interruption the
    partial arrays are returned with ``stats.interrupt_reason`` set (the
    caller writes the final checkpoint and raises).  Batched checkpoints
    are manifest-only — the snapshot closure installed on ``writer``
    captures the state matrix, the edge arrays and the vanishing flags
    directly, because the level loop keeps its dedup keys resident anyway.
    ``resume_from`` is a checkpoint carrying such a snapshot; exploration
    re-enters the loop at its saved level boundary.
    """
    start = time.perf_counter()
    input_matrix = tables.input_matrix
    delta_matrix = tables.delta_matrix
    transition_count = input_matrix.shape[0]
    # Enabledness by *deficiency counting*: transition ``t`` is disabled
    # iff some input place holds fewer tokens than the arc weight, so for
    # each distinct weight ``w`` the matmul ``(frontier < w) @ (input ==
    # w)^T`` counts a level's violated arcs per (state, transition) pair.
    # Arc weights take only a handful of distinct values, so this replaces
    # the naive ``(width × transitions × places)`` broadcast with one or
    # two BLAS calls on ``(width × places)`` operands.  float32 is exact
    # here — the counts are bounded by the place count.
    guards = [
        (int(weight), (input_matrix == weight).T.astype(np.float32))
        for weight in np.unique(input_matrix[input_matrix > 0]).tolist()
    ]
    immediate_row = (
        np.asarray(is_immediate, dtype=bool) if is_immediate is not None else None
    )
    if resume_from is None:
        table = _VectorTable(
            np.array(tables.initial_vector(), dtype=np.int64), delta_matrix, store
        )
        vanishing_flags: Optional[List[bool]] = [] if is_immediate is not None else None
        edge_sources: List[np.ndarray] = []
        edge_targets: List[np.ndarray] = []
        edge_transitions: List[np.ndarray] = []
        edge_count = 0
        cursor = 0
    else:
        snapshot = resume_from.manifest["extra"]
        table = _table_from_rows(
            np.asarray(snapshot["vectors"], dtype=np.int64), delta_matrix, store
        )
        vanishing_flags = (
            list(snapshot["vanishing"]) if is_immediate is not None else None
        )
        edge_sources = [np.asarray(snapshot["sources"], dtype=np.int64)]
        edge_targets = [np.asarray(snapshot["targets"], dtype=np.int64)]
        edge_transitions = [np.asarray(snapshot["transitions"], dtype=np.int64)]
        edge_count = edge_sources[0].shape[0]
        cursor = resume_from.cursor
    if writer is not None:

        def _snapshot() -> dict:
            empty = np.zeros(0, dtype=np.int64)
            return {
                "vectors": np.array(table.vectors(), dtype=np.int64),
                "sources": np.concatenate(edge_sources) if edge_sources else empty,
                "targets": np.concatenate(edge_targets) if edge_targets else empty,
                "transitions": (
                    np.concatenate(edge_transitions) if edge_transitions else empty
                ),
                "vanishing": (
                    np.asarray(vanishing_flags, dtype=bool)
                    if vanishing_flags is not None
                    else None
                ),
            }

        writer.extra = _snapshot
    if control is not None:
        control._begin(cursor)
    hits = 0
    interrupted = None
    while cursor < table.count:
        if faults._PLAN is not None:
            faults.on_expansion(cursor)
        if control is not None:
            interrupted = control._pulse(cursor, table.count, edge_count)
            if interrupted is not None:
                break
            if writer is not None and control._due_checkpoint(cursor):
                writer.write(cursor)
        level_end = table.count
        frontier = table.matrix[cursor - table.archived : level_end - table.archived]
        stats.batches += 1
        stats.expanded += level_end - cursor
        # (width × transitions) enabledness: zero violated input arcs.
        if guards:
            violations = None
            for weight, guard in guards:
                deficit = (frontier < weight).astype(np.float32) @ guard
                violations = deficit if violations is None else violations + deficit
            mask = violations == 0.0
        else:
            # No input arcs anywhere: every transition is always enabled.
            mask = np.ones((frontier.shape[0], transition_count), dtype=bool)
        if immediate_row is not None:
            # GSPN preemption: when any immediate transition is enabled,
            # only the immediate ones fire (the state is vanishing).
            immediate_mask = mask & immediate_row[None, :]
            has_immediate = immediate_mask.any(axis=1)
            vanishing_flags.extend(has_immediate.tolist())
            mask = np.where(has_immediate[:, None], immediate_mask, mask)
        rows, cols = np.nonzero(mask)
        if rows.shape[0] == 0:
            cursor = level_end
            continue
        successors = None
        if place_capacity is not None:
            successors = frontier[rows] + delta_matrix[cols]
            keep = (successors <= place_capacity).all(axis=1)
            rows = rows[keep]
            cols = cols[keep]
            successors = successors[keep]
            if rows.shape[0] == 0:
                cursor = level_end
                continue
        parents = cursor + rows
        if table.packable:
            candidate_keys = table.keys[parents - table.archived] + table.delta_keys[cols]
            if successors is None:
                # Key arithmetic makes the successor matrix unnecessary:
                # only the handful of genuinely new rows get materialized.
                def new_rows_of(positions, rows=rows, cols=cols, frontier=frontier):
                    return frontier[rows[positions]] + delta_matrix[cols[positions]]

            else:
                def new_rows_of(positions, successors=successors):
                    return successors[positions]

            targets, new_count = table.resolve(candidate_keys, new_rows_of)
        else:
            if successors is None:
                successors = frontier[rows] + delta_matrix[cols]
            targets, new_count = table.resolve_rows(successors)
        hits += rows.shape[0] - new_count
        edge_sources.append(parents)
        edge_targets.append(targets)
        edge_transitions.append(cols)
        edge_count += rows.shape[0]
        if table.count > limits.max_states:
            raise UnboundedNetError(limits.message)
        cursor = level_end
        table.archive_below(cursor)
    stats.states = table.count
    stats.edges = edge_count
    stats.dedup_hits = hits
    if interrupted is not None:
        stats.interrupted_at = cursor
        stats.interrupt_reason = interrupted
    vectors = table.vectors()
    if store is not None:
        store.flush()
        stats.spilled_states = max(len(store), store.item_count) if store.spilled else 0
        stats.spill_bytes = store.spill_bytes()
    stats.seconds = time.perf_counter() - start
    empty = np.zeros(0, dtype=np.int64)
    return (
        vectors,
        np.concatenate(edge_sources) if edge_sources else empty,
        np.concatenate(edge_targets) if edge_targets else empty,
        np.concatenate(edge_transitions) if edge_transitions else empty,
        np.asarray(vanishing_flags, dtype=bool) if vanishing_flags is not None else None,
    )


class _LazyColumnarList:
    """List façade over columnar arrays, materialized on first access.

    The batched kernel's payoff is that it never touches Python objects
    during the build; this façade extends that to the *results* — the
    marking list and edge list answer ``len()`` from the array shapes and
    only run the per-object materialization loop when an element is
    actually read (mirroring ``UntimedReachabilityGraph._adopt_columnar``
    on the untimed side).  Equality materializes and compares as a plain
    list, in either operand position, so the differential harness's ``==``
    assertions see no difference.
    """

    __slots__ = ("_build", "_length", "_data")

    def __init__(self, build, length: int):
        self._build = build
        self._length = length
        self._data = None

    def _materialize(self) -> list:
        if self._data is None:
            self._data = self._build()
            self._build = None
        return self._data

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __contains__(self, value) -> bool:
        return value in self._materialize()

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyColumnarList):
            other = other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:
        if self._data is None:
            return f"<lazy columnar list of {self._length} entries>"
        return repr(self._data)


def _batched_writer(control, *, kind, net, max_states, store, gspn_params=None):
    """A manifest-only :class:`CheckpointWriter` for the batched builders.

    Unlike the scalar builders, the level loop's snapshot (state matrix +
    edge arrays) goes straight into the manifest — the store, when present,
    is only a memory-bounding device here, so resume does not depend on
    it.  The snapshot closure is installed by :func:`_explore_batched`.
    """
    if control is None or not control.wants_checkpoint:
        return None
    params = {
        "max_states": max_states,
        "used_store": store is not None,
        "spill_threshold": store.spill_threshold if store is not None else None,
    }
    if gspn_params:
        params.update(gspn_params)
    return CheckpointWriter(
        control, kind=kind, net=net, params=params, extra=lambda: {}, store=None
    )


def batched_reachability_graph(
    net, *, max_states: int = 100_000, store=None, control=None, resume_from=None
):
    """Untimed reachability through the numpy level-batched kernel.

    Bit-identical to ``engine="compiled"`` (FIFO numbering, edge order);
    the resulting graph adopts the columnar arrays directly and only
    materializes :class:`~repro.petri.marking.Marking` objects and edge
    records when a per-object view is actually read.  A ``control`` is
    polled at level boundaries (deadline/cancellation, periodic
    manifest-only checkpoints).  ``resume_from`` (a ``batched-untimed``
    checkpoint) re-interns the saved state matrix in its saved order (see
    :func:`_table_from_rows`) and re-enters the level loop at the saved
    boundary; ``store`` then only bounds memory, as in the original run.
    """
    from ..petri.untimed import UntimedReachabilityGraph

    tables = NetTables.of(net)
    graph = UntimedReachabilityGraph(net)
    stats = FrontierStats(engine="batched")
    writer = _batched_writer(
        control, kind="batched-untimed", net=net, max_states=max_states, store=store
    )
    vectors, sources, targets, transitions, _flags = _explore_batched(
        tables,
        untimed_limits(max_states),
        stats,
        store=store,
        control=control,
        writer=writer,
        resume_from=resume_from,
    )
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "untimed reachability build")
    graph._adopt_columnar(tables, vectors, sources, targets, transitions)
    graph._build_stats = stats
    return graph


def batched_marking_graph(
    net,
    *,
    immediate,
    weights,
    rates,
    max_states: int = 100_000,
    place_capacity=None,
    store=None,
    control=None,
    resume_from=None,
):
    """GSPN marking graph through the numpy level-batched kernel.

    Same ``(markings, edges, vanishing, stats)`` contract as
    :func:`repro.engine.gspn.compiled_marking_graph`, bit-identical to it.
    Markings and edge tuples adopt the columnar arrays lazily (see
    :class:`_LazyColumnarList`) — solvers that only count states or read
    the vanishing set never pay the per-object materialization loop, the
    same deal ``batched_reachability_graph`` has had via
    ``_adopt_columnar``.  ``resume_from`` (a ``batched-gspn`` checkpoint)
    continues that exploration exactly as in
    :func:`batched_reachability_graph`.
    """
    tables = NetTables.of(net)
    names = tables.transition_names
    is_immediate = tuple(immediate[name] for name in names)
    weight_of = tuple(weights[name] for name in names)
    rate_of = tuple(rates[name] for name in names)
    stats = FrontierStats(engine="batched")
    writer = _batched_writer(
        control,
        kind="batched-gspn",
        net=net,
        max_states=max_states,
        store=store,
        gspn_params={
            "immediate": dict(immediate),
            "weights": dict(weights),
            "rates": dict(rates),
            "place_capacity": place_capacity,
        },
    )
    vectors, sources, targets, transitions, flags = _explore_batched(
        tables,
        gspn_limits(max_states),
        stats,
        is_immediate=is_immediate,
        place_capacity=place_capacity,
        store=store,
        control=control,
        writer=writer,
        resume_from=resume_from,
    )
    if stats.interrupt_reason is not None:
        raise_interrupted(stats, writer, control, "GSPN marking-graph build")

    def build_markings() -> list:
        return [tables.to_marking(row) for row in vectors.tolist()]

    def build_edges() -> list:
        edges = []
        for source, target, transition in zip(
            sources.tolist(), targets.tolist(), transitions.tolist()
        ):
            if is_immediate[transition]:
                edges.append(
                    (source, target, names[transition], weight_of[transition], True)
                )
            else:
                edges.append(
                    (source, target, names[transition], rate_of[transition], False)
                )
        return edges

    markings = _LazyColumnarList(build_markings, int(vectors.shape[0]))
    edges = _LazyColumnarList(build_edges, int(sources.shape[0]))
    vanishing = set(np.flatnonzero(flags).tolist())
    return markings, edges, vanishing, stats


__all__ = [
    "batched_marking_graph",
    "batched_reachability_graph",
]
