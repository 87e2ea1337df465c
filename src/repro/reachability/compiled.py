"""Compiled high-throughput implementation of the Figure-3 procedure.

:mod:`repro.reachability.successors` keeps the successor procedure in its
readable, paper-shaped form: transitions are looked up by name, every state
rescans ``transition_order``, and each step allocates fresh
:class:`~repro.petri.marking.Marking` and
:class:`~repro.reachability.state.TimedState` objects with full validation.
That is the right reference semantics, but it is also the hot path of every
reachability construction, and it dominates the cost of the scaling
workloads (token rings, sliding windows, interfering timers).

This module compiles a :class:`~repro.petri.net.TimedPetriNet` into dense
integer-indexed tables once — the structural part lives in the shared
:class:`repro.engine.tables.NetTables`, which the untimed and GSPN builders
reuse — then runs the *same* procedure over tuple encoded states:

* places and transitions become integer indices; markings become plain
  ``tuple[int, ...]`` token vectors,
* input/output bags become precomputed ``(place_index, count)`` lists, so
  firing a transition is a handful of integer adds instead of Marking
  removals with re-validation,
* enabling/firing times are coerced through the scalar algebra once per
  transition (including the constraint-aware zero test for symbolic nets),
* conflict sets are resolved to group indices, and the branching
  probabilities of every ``(conflict set, firable subset)`` combination are
  memoized — the same decision states recur constantly,
* the enabled-transition set is maintained *incrementally*: a successor
  marking only re-tests the transitions consuming from places whose token
  count changed, instead of rescanning every transition, and enabled sets
  are additionally memoized per marking vector,
* states are deduplicated on cheap tuple keys; the public
  :class:`~repro.reachability.state.TimedState` (with its cached hash) is
  only materialized once per *unique* state, when the node is interned into
  the graph.

The engine is parameterized by the same scalar algebras as the reference
generator, so the numeric and symbolic constructions share it, and it
reproduces the reference construction **bit for bit**: same node order, same
edge order, same delays, probabilities, fired/completed labels and used
constraint labels.  ``tests/test_compiled_engine.py`` enforces that
equivalence differentially on every bundled workload.

Use ``engine="reference"`` on the public builders to fall back to the
readable implementation.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..engine.tables import NetTables
from ..exceptions import SafenessViolationError
from ..petri.net import TimedPetriNet
from ..symbolic.constraints import ConstraintSet
from .algebra import ProbabilityScalar, TimeScalar
from .state import TimedState, _is_zero_entry
from .successors import OVERLAP_ERROR, OVERLAP_SKIP, STEP_ADVANCE, STEP_FIRE

#: The zero-dropping rule of :class:`TimedState`, applied eagerly so compiled
#: states dedup exactly like TimedState equality.  Shared with state.py on
#: purpose: the two must never diverge.
_is_syntactic_zero = _is_zero_entry


class _CompiledState:
    """A timed state in compiled form.

    ``ret`` and ``rft`` are ``(transition_index, value)`` tuples that
    preserve the insertion order of the reference implementation's dicts —
    the order matters for tie reporting and for the symbolic comparator's
    constraint bookkeeping.  Identity (``__eq__``/``__hash__``) is
    order-insensitive (dict equality on the reference side ignores insertion
    order): the key canonicalizes the clock vectors by transition index,
    which never has to compare two clock *values* because indices are unique.
    The hash is computed lazily and cached, so each state pays for hashing
    its clock values exactly once no matter how many dedup lookups see it.
    """

    __slots__ = ("vec", "ret", "rft", "enabled", "ret_keys", "rft_keys", "_key", "_hash")

    def __init__(
        self,
        vec: Tuple[int, ...],
        ret: Tuple[Tuple[int, TimeScalar], ...],
        rft: Tuple[Tuple[int, TimeScalar], ...],
        enabled: Tuple[int, ...],
    ):
        self.vec = vec
        self.ret = ret
        self.rft = rft
        self.enabled = enabled
        self.ret_keys: FrozenSet[int] = frozenset(index for index, _ in ret)
        self.rft_keys: FrozenSet[int] = frozenset(index for index, _ in rft)
        self._key: Optional[tuple] = None
        self._hash: Optional[int] = None

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (self.vec, tuple(sorted(self.ret)), tuple(sorted(self.rft)))
        return self._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _CompiledState):
            return NotImplemented
        return self.key == other.key


class _CompiledEdge:
    """A successor edge in compiled form (indices still resolved to names)."""

    __slots__ = ("target", "delay", "probability", "fired", "completed", "kind", "used_constraints")

    def __init__(self, target, delay, probability, fired, completed, kind, used_constraints):
        self.target = target
        self.delay = delay
        self.probability = probability
        self.fired = fired
        self.completed = completed
        self.kind = kind
        self.used_constraints = used_constraints


class CompiledNet(NetTables):
    """Integer-indexed tables of a net, specialized for one algebra pair.

    The structural tables (arcs, deltas, consumer relation, conflict groups,
    incremental enabled-set maintenance) come from the shared
    :class:`~repro.engine.tables.NetTables`; this subclass adds the columns
    that depend on the algebras, because zero tests on enabling and firing
    times go through the time algebra (a symbolic enabling time may be
    provably zero only under the declared constraints).
    """

    def __init__(self, net: TimedPetriNet, time_algebra, probability_algebra):
        super().__init__(net)
        self.time = time_algebra
        self.probability = probability_algebra

        self.enabling_zero: List[bool] = []
        self.enabling_value: List[TimeScalar] = []
        self.firing_zero: List[bool] = []
        self.firing_value: List[TimeScalar] = []
        for name in self.transition_names:
            transition = net.transition(name)
            self.enabling_zero.append(time_algebra.is_zero(transition.enabling_time))
            self.enabling_value.append(time_algebra.coerce(transition.enabling_time))
            self.firing_zero.append(time_algebra.is_zero(transition.firing_time))
            self.firing_value.append(time_algebra.coerce(transition.firing_time))

        # Memo tables shared across the whole construction.
        self._choice_cache: Dict[Tuple[int, Tuple[int, ...]], Tuple[Tuple[int, ProbabilityScalar], ...]] = {}
        self._advance_cache: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Branch probabilities
    # ------------------------------------------------------------------

    def branch_choices(
        self, group: int, members: Tuple[int, ...]
    ) -> Tuple[Tuple[int, ProbabilityScalar], ...]:
        """Memoized per-conflict-set choices for a firable member subset."""
        key = (group, members)
        cached = self._choice_cache.get(key)
        if cached is None:
            conflict_set = self.conflict_set_objects[group]
            names = tuple(self.transition_names[index] for index in members)
            probabilities = self.probability.branch_probabilities(conflict_set, names)
            choices = [
                (self.transition_index[name], probability)
                for name, probability in probabilities.items()
                if not self.probability.is_zero(probability)
            ]
            if not choices:
                # Degenerate: every firable member has probability zero;
                # resolve genuinely uniformly (mirrors the reference step).
                share = self.probability.uniform(len(members))
                choices = [(index, share) for index in members]
            cached = tuple(choices)
            self._choice_cache[key] = cached
        return cached


class CompiledSuccessorEngine:
    """The Figure-3 procedure over compiled states.

    Produces exactly the successors of
    :class:`~repro.reachability.successors.SuccessorGenerator`, in the same
    order, but without per-step name resolution, transition rescans or
    Marking/TimedState allocation.
    """

    def __init__(
        self,
        net: TimedPetriNet,
        time_algebra,
        probability_algebra,
        *,
        overlap_policy: str = OVERLAP_ERROR,
    ):
        if overlap_policy not in (OVERLAP_ERROR, OVERLAP_SKIP):
            raise ValueError(f"unknown overlap policy {overlap_policy!r}")
        compiled = CompiledNet(net, time_algebra, probability_algebra)
        self.compiled = compiled
        self.net = compiled.net
        self.time = compiled.time
        self.probability = compiled.probability
        self.overlap_policy = overlap_policy
        #: Numeric fast path: clock values are plain Fractions, so the
        #: minimum/subtraction can run inline instead of through the algebra.
        self._numeric_time = not getattr(compiled.time, "symbolic", False)

    # ------------------------------------------------------------------
    # State conversion
    # ------------------------------------------------------------------

    def initial_state(self) -> _CompiledState:
        """Compiled counterpart of ``SuccessorGenerator.initial_state``."""
        compiled = self.compiled
        vec = compiled.initial_vector()
        enabled = compiled.enabled_transitions(vec)
        ret = tuple(
            (index, compiled.enabling_value[index])
            for index in enabled
            if not compiled.enabling_zero[index]
        )
        return _CompiledState(vec, ret, (), enabled)

    def to_timed_state(self, state: _CompiledState) -> TimedState:
        """Materialize the public :class:`TimedState` of a compiled state."""
        compiled = self.compiled
        return TimedState(
            compiled.to_marking(state.vec),
            {compiled.transition_names[index]: value for index, value in state.ret},
            {compiled.transition_names[index]: value for index, value in state.rft},
        )

    # ------------------------------------------------------------------
    # Firability
    # ------------------------------------------------------------------

    def firable_transitions(self, state: _CompiledState) -> List[int]:
        """Firable transition indices, in transition order."""
        firable: List[int] = []
        for index in state.enabled:
            if index in state.ret_keys:
                continue
            if index in state.rft_keys:
                if self.overlap_policy == OVERLAP_ERROR:
                    name = self.compiled.transition_names[index]
                    raise SafenessViolationError(
                        f"transition {name!r} becomes firable while it is already firing "
                        f"in state {self.to_timed_state(state).describe()}; the paper's "
                        "model restriction (at most one firing of a transition at a time) "
                        "is violated"
                    )
                continue
            firable.append(index)
        return firable

    # ------------------------------------------------------------------
    # Successor generation
    # ------------------------------------------------------------------

    def successors(self, state: _CompiledState) -> List[_CompiledEdge]:
        """All immediate successors, mirroring the reference procedure."""
        firable = self.firable_transitions(state)
        if firable:
            return self._fire_step(state, firable)
        if not state.ret and not state.rft:
            return []
        return [self._advance_step(state)]

    # -- fire step -------------------------------------------------------

    def _fire_step(self, state: _CompiledState, firable: List[int]) -> List[_CompiledEdge]:
        compiled = self.compiled
        by_group: Dict[int, List[int]] = {}
        for index in firable:
            by_group.setdefault(compiled.group_of[index], []).append(index)

        per_set_choices = [
            compiled.branch_choices(group, tuple(by_group[group])) for group in sorted(by_group)
        ]

        edges: List[_CompiledEdge] = []
        for selector in product(*per_set_choices):
            selector_indices = tuple(index for index, _ in selector)
            if len(selector) == 1:
                # Common case: a single conflict set chooses; 1 * p == p.
                probability = selector[0][1]
            else:
                probability = self.probability.one()
                for _, branch_probability in selector:
                    probability = self.probability.multiply(probability, branch_probability)
            edges.append(self._fire_selector(state, selector_indices, probability))
        return edges

    def _fire_selector(
        self,
        state: _CompiledState,
        selector: Tuple[int, ...],
        probability: ProbabilityScalar,
    ) -> _CompiledEdge:
        compiled = self.compiled
        vec = list(state.vec)
        touched = set()
        completed: List[int] = []
        new_rft = list(state.rft)

        for index in selector:
            if index in state.rft_keys:
                name = compiled.transition_names[index]
                raise SafenessViolationError(
                    f"transition {name!r} would start a second simultaneous firing"
                )
            for place_idx, count in compiled.inputs[index]:
                vec[place_idx] -= count
                touched.add(place_idx)
            if compiled.firing_zero[index]:
                # Instantaneous firing: outputs appear immediately.
                for place_idx, count in compiled.outputs[index]:
                    vec[place_idx] += count
                    touched.add(place_idx)
                completed.append(index)
            else:
                new_rft.append((index, compiled.firing_value[index]))

        new_vec = tuple(vec)

        # RET bookkeeping: keep entries that stay enabled, drop the rest.
        selector_set = set(selector)
        new_ret: List[Tuple[int, TimeScalar]] = []
        for index, value in state.ret:
            if index in selector_set:
                continue
            if compiled.covers(new_vec, index):
                new_ret.append((index, value))

        # Instantaneous outputs may enable transitions that were not enabled
        # before; initialize their enabling countdown.  Only consumers of the
        # touched places can have flipped.
        if completed:
            in_new_ret = {index for index, _ in new_ret}
            for index in compiled.candidate_new_enabled(touched):
                if index in in_new_ret or index in selector_set:
                    continue
                if compiled.covers(new_vec, index) and not compiled.covers(state.vec, index):
                    if not compiled.enabling_zero[index]:
                        new_ret.append((index, compiled.enabling_value[index]))

        target = _CompiledState(
            new_vec,
            tuple(new_ret),
            tuple(new_rft),
            compiled.derive_enabled(state.enabled, new_vec, touched),
        )
        return _CompiledEdge(
            target=target,
            delay=self.time.zero(),
            probability=probability,
            fired=tuple(compiled.transition_names[index] for index in selector),
            completed=tuple(compiled.transition_names[index] for index in completed),
            kind=STEP_FIRE,
            used_constraints=(),
        )

    # -- time step -------------------------------------------------------

    def _advance_clocks(self, state: _CompiledState) -> tuple:
        """The marking-independent part of a time step, memoized.

        Which clocks attain the minimum and what every surviving clock
        decays to depends only on the ``(RET, RFT)`` configuration, which
        recurs across many markings; the minimum selection and the exact
        subtractions are the arithmetic-heavy part of the whole procedure.
        """
        cache_key = (state.ret, state.rft)
        cached = self.compiled._advance_cache.get(cache_key)
        if cached is not None:
            return cached

        names = self.compiled.transition_names
        if self._numeric_time:
            # Fast path: plain Fraction comparison; used_constraints stays ().
            elapsed = None
            for _index, value in state.ret:
                if elapsed is None or value < elapsed:
                    elapsed = value
            for _index, value in state.rft:
                if elapsed is None or value < elapsed:
                    elapsed = value
            at_minimum_ret = {index for index, value in state.ret if value == elapsed}
            at_minimum_rft = {index for index, value in state.rft if value == elapsed}
            used_constraints: Tuple[str, ...] = ()
        else:
            # Symbolic path: delegate to the algebra with the exact entry
            # order of the reference (it determines tie-breaking and the
            # reported constraint labels).
            entries = {}
            for index, value in state.ret:
                entries[("RET", names[index])] = value
            for index, value in state.rft:
                entries[("RFT", names[index])] = value
            selection = self.time.minimum(entries)
            elapsed = selection.value
            at_minimum = set(selection.keys)
            at_minimum_ret = {
                index for index, _ in state.ret if ("RET", names[index]) in at_minimum
            }
            at_minimum_rft = {
                index for index, _ in state.rft if ("RFT", names[index]) in at_minimum
            }
            used_constraints = selection.used_constraints

        new_ret: List[Tuple[int, TimeScalar]] = []
        for index, value in state.ret:
            if index in at_minimum_ret:
                continue
            if self._numeric_time:
                new_ret.append((index, value - elapsed))
            else:
                remaining = self.time.subtract(value, elapsed)
                if not _is_syntactic_zero(remaining):
                    new_ret.append((index, remaining))

        new_rft: List[Tuple[int, TimeScalar]] = []
        completed: List[int] = []
        for index, value in state.rft:
            if index in at_minimum_rft:
                completed.append(index)
                continue
            if self._numeric_time:
                new_rft.append((index, value - elapsed))
            else:
                remaining = self.time.subtract(value, elapsed)
                if not _is_syntactic_zero(remaining):
                    new_rft.append((index, remaining))

        cached = (elapsed, tuple(new_ret), tuple(new_rft), tuple(completed), used_constraints)
        self.compiled._advance_cache[cache_key] = cached
        return cached

    def _advance_step(self, state: _CompiledState) -> _CompiledEdge:
        compiled = self.compiled
        names = compiled.transition_names
        elapsed, ret_base, rft_tuple, completed, used_constraints = self._advance_clocks(state)
        new_ret = list(ret_base)
        new_rft = rft_tuple

        vec = list(state.vec)
        touched = set()
        for index in completed:
            for place_idx, count in compiled.outputs[index]:
                vec[place_idx] += count
                touched.add(place_idx)
        new_vec = tuple(vec)

        # Transitions enabled by the freshly deposited tokens start their
        # enabling countdown now.
        in_new_ret = {index for index, _ in new_ret}
        for index in compiled.candidate_new_enabled(touched):
            if index in in_new_ret:
                continue
            if compiled.covers(new_vec, index) and not compiled.covers(state.vec, index):
                if not compiled.enabling_zero[index]:
                    new_ret.append((index, compiled.enabling_value[index]))

        target = _CompiledState(
            new_vec,
            tuple(new_ret),
            tuple(new_rft),
            compiled.derive_enabled(state.enabled, new_vec, touched),
        )
        return _CompiledEdge(
            target=target,
            delay=elapsed,
            probability=self.probability.one(),
            fired=(),
            completed=tuple(sorted(names[index] for index in completed)),
            kind=STEP_ADVANCE,
            used_constraints=used_constraints,
        )


def build_compiled_graph(
    net: TimedPetriNet,
    time_algebra,
    probability_algebra,
    *,
    symbolic: bool,
    constraints: Optional[ConstraintSet],
    max_states: int,
    overlap_policy: str = OVERLAP_ERROR,
):
    """BFS construction of the timed reachability graph via the compiled engine.

    Mirrors the reference builder exactly — same breadth-first order, same
    ``max_states`` semantics — but deduplicates on tuple keys, only
    materializes one :class:`TimedState` per unique node, and rides the
    shared frontier loop of :mod:`repro.engine.frontier` through a
    :class:`~repro.engine.frontier.TimedKernel`.
    """
    # Imported here to avoid a circular import (graph.py imports this module).
    from ..engine.frontier import FrontierStats, TimedKernel, explore, timed_limits
    from .graph import TimedReachabilityGraph

    graph = TimedReachabilityGraph(net, symbolic=symbolic, constraints=constraints)
    engine = CompiledSuccessorEngine(
        net, time_algebra, probability_algebra, overlap_policy=overlap_policy
    )
    kernel = TimedKernel(engine)

    index_of_key: Dict[_CompiledState, int] = {}

    def intern(state: _CompiledState, _parent: int) -> Tuple[int, bool]:
        existing = index_of_key.get(state)
        if existing is not None:
            return existing, False
        index, _ = graph._add_state(engine.to_timed_state(state))
        index_of_key[state] = index
        return index, True

    def on_edge(source: int, target: int, data) -> None:
        graph._add_edge(source, target, *data)

    graph.initial_index = 0  # the seed is interned first
    graph._build_stats = explore(
        kernel,
        intern,
        on_edge,
        timed_limits(max_states),
        stats=FrontierStats(engine="compiled"),
    )
    return graph


__all__ = ["CompiledNet", "CompiledSuccessorEngine", "build_compiled_graph"]
