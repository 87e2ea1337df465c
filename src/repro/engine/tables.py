"""Integer-indexed structural tables of a Timed Petri Net.

:class:`NetTables` compiles the *structure* of a
:class:`~repro.petri.net.TimedPetriNet` — arcs, conflict sets, the
consumer relation — into dense integer tables once, so that every graph
construction (timed, untimed, coverability, GSPN marking graph) can run its
hot loop over plain ``tuple[int, ...]`` token vectors:

* places and transitions become integer indices; markings become dense
  token vectors,
* input/output bags become precomputed ``(place_index, count)`` lists and
  the atomic firing rule becomes a precomputed per-transition *delta* list
  (a handful of integer adds instead of two Marking copies with
  re-validation),
* the enabled-transition set is maintained **incrementally**: a successor
  vector only re-tests the transitions consuming from places whose token
  count changed, and enabled sets are memoized per vector,
* conflict sets are resolved to group indices (numbered in the iteration
  order of the reference fire step) for the timed engine's branching step.

The timing- and probability-dependent tables of the timed construction live
in :class:`repro.reachability.compiled.CompiledNet`, which extends this
class with the algebra-aware columns (enabling/firing values and zero
tests, memoized branch probabilities).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..petri.fingerprint import net_cache_key
from ..petri.marking import Marking
from ..petri.net import TimedPetriNet

#: Bound of the shared-tables LRU (distinct net contents held at
#: once).  Tables are small — O(P + T + arcs) plus the per-vector memo that
#: grows with use — but long-running services churn through many models, so
#: the memo is LRU-bounded like every other cache in the tree.
DEFAULT_TABLES_LIMIT = 128

#: Shared structural tables for :meth:`NetTables.of`, keyed by the net's
#: *content* (``repro.petri.fingerprint.net_cache_key``: canonical
#: fingerprint + declaration-order digest) instead of object identity, so
#: structurally equal nets — two ``sliding_window_net(4)`` calls, a net and
#: its pickle round-trip — share one compilation and its memo caches.
_SHARED_TABLES: "OrderedDict[str, NetTables]" = OrderedDict()
_TABLES_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def tables_cache_stats() -> Dict[str, int]:
    """Hit/miss/eviction counters and current size of the shared-tables memo."""
    stats = dict(_TABLES_COUNTERS)
    stats["size"] = len(_SHARED_TABLES)
    stats["limit"] = DEFAULT_TABLES_LIMIT
    return stats


def clear_shared_tables() -> None:
    """Drop every memoized compilation and reset the counters (for tests)."""
    _SHARED_TABLES.clear()
    for key in _TABLES_COUNTERS:
        _TABLES_COUNTERS[key] = 0


class NetTables:
    """Dense integer-indexed tables of a net's structure.

    The compilation is purely structural (no timing, no probabilities), so a
    single instance can serve numeric and symbolic nets alike; it costs
    ``O(P + T + arcs)`` and is rebuilt per construction — negligible next to
    any graph exploration.
    """

    def __init__(self, net: TimedPetriNet):
        self.net = net
        self.place_names: Tuple[str, ...] = net.place_order
        self.known_places: frozenset = frozenset(net.place_order)
        self.transition_names: Tuple[str, ...] = net.transition_order
        self.place_index: Dict[str, int] = {name: i for i, name in enumerate(self.place_names)}
        self.transition_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.transition_names)
        }

        self.inputs: List[Tuple[Tuple[int, int], ...]] = []
        self.outputs: List[Tuple[Tuple[int, int], ...]] = []
        #: Net token change of an *atomic* (untimed) firing, as a sparse
        #: ``(place_index, delta)`` list; places whose count does not change
        #: (input weight == output weight) are omitted, because they cannot
        #: affect any transition's enabling status either.
        self.deltas: List[Tuple[Tuple[int, int], ...]] = []
        #: The place indices of :attr:`deltas`, ready to feed
        #: :meth:`derive_enabled` without re-deriving them per firing.
        self.delta_places: List[Tuple[int, ...]] = []
        consumers: List[List[int]] = [[] for _ in self.place_names]
        for index, name in enumerate(self.transition_names):
            transition = net.transition(name)
            input_arcs = tuple(
                (self.place_index[place], count) for place, count in transition.inputs.items()
            )
            output_arcs = tuple(
                (self.place_index[place], count) for place, count in transition.outputs.items()
            )
            self.inputs.append(input_arcs)
            self.outputs.append(output_arcs)
            delta: Dict[int, int] = {}
            for place_idx, count in input_arcs:
                delta[place_idx] = delta.get(place_idx, 0) - count
            for place_idx, count in output_arcs:
                delta[place_idx] = delta.get(place_idx, 0) + count
            sparse = tuple((place_idx, change) for place_idx, change in delta.items() if change)
            self.deltas.append(sparse)
            self.delta_places.append(tuple(place_idx for place_idx, _change in sparse))
            for place_idx, _count in input_arcs:
                consumers[place_idx].append(index)
        self.consumers_of_place: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(indices) for indices in consumers
        )

        # Conflict groups, numbered in the iteration order of the reference
        # fire step (sorted by the set's transition-name tuple).
        ordered_sets = sorted(net.conflict_sets, key=lambda cs: cs.transition_names)
        self.conflict_set_objects = tuple(ordered_sets)
        self.group_of: List[int] = [0] * len(self.transition_names)
        for group, conflict_set in enumerate(ordered_sets):
            for name in conflict_set.transition_names:
                self.group_of[self.transition_index[name]] = group

        # Memoized enabled sets, shared across the whole construction.
        self._enabled_cache: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # Lazily built dense incidence matrices (the batched kernel's view
        # of the same arcs).
        self._matrix_cache: Dict[str, np.ndarray] = {}

    @classmethod
    def of(cls, net: TimedPetriNet) -> "NetTables":
        """The shared structural tables of ``net``, memoized by content.

        Keyed on ``net_cache_key(net)`` — the canonical content fingerprint
        plus the declaration-order digest — so *structurally equal* nets
        share one compilation and its memo caches even when they are
        distinct objects (repeated constructor calls, pickle round-trips,
        differential runs, best-of-N benchmarks).  The declaration-order
        component keeps the reuse bit-exact: tables fix vector columns and
        transition numbering, so only nets that also declare in the same
        order may share.  Always yields a plain :class:`NetTables`;
        subclasses with their own constructor arguments (the timed engine's
        ``CompiledNet``) are constructed directly, outside this memo.
        """
        key = net_cache_key(net)
        tables = _SHARED_TABLES.get(key)
        if tables is None:
            _TABLES_COUNTERS["misses"] += 1
            tables = NetTables(net)
            _SHARED_TABLES[key] = tables
            while len(_SHARED_TABLES) > DEFAULT_TABLES_LIMIT:
                _SHARED_TABLES.popitem(last=False)
                _TABLES_COUNTERS["evictions"] += 1
        else:
            _TABLES_COUNTERS["hits"] += 1
            _SHARED_TABLES.move_to_end(key)
        return tables

    # ------------------------------------------------------------------
    # Pickling (artifact-cache disk tier)
    # ------------------------------------------------------------------

    #: Memo attributes replaced by empty dicts when pickling.
    _TRANSIENT_CACHES: Tuple[str, ...] = ("_enabled_cache", "_matrix_cache")

    def __getstate__(self) -> dict:
        """Pickle the structural tables without the memoized working sets.

        The service's ``tables`` stage stores :class:`NetTables` in the
        artifact cache's disk tier; the memo tables are working sets that
        would only bloat the stored payload, so an unpickled copy restarts
        with empty caches.
        """
        state = dict(self.__dict__)
        for name in self._TRANSIENT_CACHES:
            state[name] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Vector conversions
    # ------------------------------------------------------------------

    def initial_vector(self) -> Tuple[int, ...]:
        """The initial marking as a dense token vector."""
        return self.net.initial_marking.to_vector()

    def to_marking(self, vec: Sequence[int]) -> Marking:
        """Materialize the public :class:`Marking` of a token vector.

        Uses the trusted constructor: the vector is non-negative and aligned
        with the place order by construction, so validation is skipped.
        """
        return Marking._trusted(
            self.place_names,
            self.known_places,
            {self.place_names[i]: count for i, count in enumerate(vec) if count},
        )

    # ------------------------------------------------------------------
    # Dense incidence matrices (batched kernel)
    # ------------------------------------------------------------------

    @property
    def input_matrix(self) -> np.ndarray:
        """Dense ``(transitions × places)`` input-arc weights.

        Row ``t`` is the *guard row* of transition ``t``: a marking vector
        enables ``t`` iff it dominates the row component-wise, which is how
        the batched kernel tests a whole frontier against every transition
        in one broadcast.  Built lazily and excluded from pickles (an
        unpickled copy re-derives it from the sparse arcs).
        """
        matrix = self._matrix_cache.get("input")
        if matrix is None:
            matrix = np.zeros(
                (len(self.transition_names), len(self.place_names)), dtype=np.int64
            )
            for transition, arcs in enumerate(self.inputs):
                for place_idx, count in arcs:
                    matrix[transition, place_idx] = count
            self._matrix_cache["input"] = matrix
        return matrix

    @property
    def delta_matrix(self) -> np.ndarray:
        """Dense ``(transitions × places)`` token deltas of atomic firings.

        The dense counterpart of :attr:`deltas`: adding row ``t`` to a
        marking vector is the atomic firing rule, vectorized over whole
        candidate batches by the batched kernel.
        """
        matrix = self._matrix_cache.get("delta")
        if matrix is None:
            matrix = np.zeros(
                (len(self.transition_names), len(self.place_names)), dtype=np.int64
            )
            for transition, sparse in enumerate(self.deltas):
                for place_idx, change in sparse:
                    matrix[transition, place_idx] = change
            self._matrix_cache["delta"] = matrix
        return matrix

    # ------------------------------------------------------------------
    # Enabling
    # ------------------------------------------------------------------

    def covers(self, vec: Sequence[int], transition: int) -> bool:
        """Enabling test on a token vector."""
        for place_idx, count in self.inputs[transition]:
            if vec[place_idx] < count:
                return False
        return True

    def enabled_transitions(
        self, vec: Tuple[int, ...], *, memoize: bool = True
    ) -> Tuple[int, ...]:
        """All enabled transition indices of a marking vector (memoized).

        The enabled set is a pure function of the vector, so ``memoize``
        only trades speed for memory: early-terminating queries and
        store-spilled builds pass ``memoize=False`` to keep the per-vector
        memo from growing with the whole explored state space.
        """
        cached = self._enabled_cache.get(vec)
        if cached is None:
            cached = tuple(
                index for index in range(len(self.transition_names)) if self.covers(vec, index)
            )
            if memoize:
                self._enabled_cache[vec] = cached
        return cached

    def derive_enabled(
        self,
        parent_enabled: Tuple[int, ...],
        vec: Tuple[int, ...],
        touched_places: Iterable[int],
        *,
        memoize: bool = True,
    ) -> Tuple[int, ...]:
        """Enabled set of ``vec``, updated incrementally from the parent's.

        Only transitions consuming from a touched place can change their
        enabling status, so everything else carries over unchanged.
        """
        cached = self._enabled_cache.get(vec)
        if cached is not None:
            return cached
        enabled = set(parent_enabled)
        for place_idx in touched_places:
            for transition in self.consumers_of_place[place_idx]:
                if self.covers(vec, transition):
                    enabled.add(transition)
                else:
                    enabled.discard(transition)
        result = tuple(sorted(enabled))
        if memoize:
            self._enabled_cache[vec] = result
        return result

    def candidate_new_enabled(self, touched_places: Iterable[int]) -> List[int]:
        """Transitions whose enabling status may have flipped, in index order."""
        candidates = set()
        for place_idx in touched_places:
            candidates.update(self.consumers_of_place[place_idx])
        return sorted(candidates)

    # ------------------------------------------------------------------
    # Atomic firing (untimed rule)
    # ------------------------------------------------------------------

    def fire_atomic(self, vec: Sequence[int], transition: int) -> Tuple[int, ...]:
        """Atomic firing: apply the transition's precomputed token delta.

        The caller must have checked :meth:`covers`; the places whose count
        changed are ``self.delta_places[transition]``.
        """
        new_vec = list(vec)
        for place_idx, change in self.deltas[transition]:
            new_vec[place_idx] += change
        return tuple(new_vec)


__all__ = [
    "DEFAULT_TABLES_LIMIT",
    "NetTables",
    "clear_shared_tables",
    "tables_cache_stats",
]
