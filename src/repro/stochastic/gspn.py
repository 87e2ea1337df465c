"""Generalized Stochastic Petri Nets: the Molloy-style baseline.

Section 1 of the paper contrasts its deterministic-delay model with Molloy's
proposal of exponentially distributed transition delays, which turns the
reachability graph into a continuous-time Markov chain (CTMC).  This module
implements that baseline so the reproduction can compare the two analyses on
the same protocol models (experiment E14):

* transitions with a positive firing time become **timed** transitions with
  exponential delay of the same *mean* (rate = 1 / mean),
* transitions with zero firing time become **immediate** transitions whose
  relative weights are the firing frequencies,
* the marking graph is explored with race semantics, *vanishing* markings
  (where an immediate transition is enabled) are eliminated, and the
  stationary distribution of the resulting CTMC yields throughputs and
  utilizations.

Enabling times have no exponential counterpart; they are treated as part of
the mean delay (``mean = E(t) + F(t)``), which is the usual pragmatic mapping
when comparing against timeout-style models and is called out in the
benchmark that uses this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..engine import ENGINE_BATCHED, ENGINE_COMPILED, ENGINE_REFERENCE, check_engine
from ..engine.batched import batched_marking_graph
from ..engine.runtime import build_store
from ..engine.gspn import compiled_marking_graph
from ..exceptions import NotErgodicError, PerformanceError, UnboundedNetError
from ..petri.marking import Marking
from ..petri.net import TimedPetriNet
from ..symbolic.linexpr import LinExpr


def _to_float(value) -> float:
    if isinstance(value, LinExpr):
        return float(value.constant_value())
    return float(value)


@dataclass(frozen=True)
class GSPNResult:
    """Stationary analysis results of the exponential-delay (GSPN) model."""

    tangible_markings: Tuple[Marking, ...]
    stationary: np.ndarray
    throughput: Dict[str, float]
    utilization: Dict[str, float]

    def probability_of(self, predicate) -> float:
        """Stationary probability of the set of markings satisfying ``predicate``."""
        return float(
            sum(
                probability
                for marking, probability in zip(self.tangible_markings, self.stationary)
                if predicate(marking)
            )
        )


class GSPNAnalysis:
    """Exponential-delay analysis of a Timed Petri Net model.

    Parameters
    ----------
    net:
        The (numeric) model.  Mean delays default to ``E(t) + F(t)``.
    rates:
        Optional explicit exponential rates per transition, overriding the
        default ``1 / mean`` mapping.
    max_states:
        Bound on the marking-graph exploration.
    place_capacity:
        Optional truncation bound: successor markings that would put more
        than this many tokens in any place are not generated.  Exponential
        delays let low-probability interleavings (e.g. a timeout racing a
        slow medium) grow some places without bound, so protocol models that
        are bounded under deterministic timing may need a small truncation
        here; the benchmark that uses this baseline reports the truncation
        level alongside the results.
    engine:
        Marking-graph construction backend: ``"compiled"`` (default) runs
        the integer-vector exploration of
        :func:`repro.engine.gspn.compiled_marking_graph`, ``"reference"``
        the readable marking-based exploration in this module,
        and ``"batched"`` the numpy level-batched kernel of
        :func:`repro.engine.batched.batched_marking_graph`.  All backends
        produce bit-identical marking graphs and therefore identical
        stationary results.
    store:
        ``None`` (default), ``"disk"`` or a
        :class:`~repro.engine.store.DiskStateStore`: spill the exploration's
        dedup index and frontier past ``spill_threshold`` interned states to
        disk.  Supported by the frontier-core engines (``"compiled"`` and
        ``"batched"``); rejected for ``"reference"``.
    spill_threshold:
        Interned-state count above which a ``store="disk"`` spool moves to
        disk (defaults to the store's own default).
    control:
        A :class:`~repro.engine.runtime.RunControl` bounding the marking
        graph exploration: deadline, cooperative cancellation, progress
        reports and periodic resumable checkpoints.  Supported by the
        frontier-core engines (``"compiled"`` and ``"batched"``); an
        interrupted exploration raises
        :class:`~repro.exceptions.BuildInterruptedError` whose checkpoint
        :func:`repro.engine.runtime.resume` completes bit-identically.
    """

    def __init__(
        self,
        net: TimedPetriNet,
        *,
        rates: Optional[Mapping[str, float]] = None,
        max_states: int = 50_000,
        place_capacity: Optional[int] = None,
        engine: str = ENGINE_COMPILED,
        store=None,
        spill_threshold: Optional[int] = None,
        control=None,
    ):
        if net.is_symbolic:
            raise PerformanceError("GSPN analysis requires a numeric net; bind symbols first")
        check_engine(engine)
        if engine == ENGINE_REFERENCE:
            # Reject store=/control= at construction, not at the first solve().
            build_store(engine, store, control=control)
        self.net = net
        self.max_states = max_states
        self.place_capacity = place_capacity
        self.engine = engine
        self.store = store
        self.spill_threshold = spill_threshold
        self.control = control
        self._build_stats = None
        self._exploration = None
        self._rates: Dict[str, float] = {}
        self._immediate: Dict[str, bool] = {}
        self._weights: Dict[str, float] = {}
        for name in net.transition_order:
            transition = net.transition(name)
            mean = _to_float(transition.enabling_time) + _to_float(transition.firing_time)
            weight = _to_float(transition.firing_frequency)
            self._weights[name] = weight if weight > 0 else 1.0
            if rates and name in rates:
                self._immediate[name] = False
                self._rates[name] = float(rates[name])
            elif mean <= 0:
                self._immediate[name] = True
                self._rates[name] = float("inf")
            else:
                self._immediate[name] = False
                self._rates[name] = 1.0 / mean

    # ------------------------------------------------------------------
    # Marking graph exploration
    # ------------------------------------------------------------------

    def _explore(self, *, store=None, resume_from=None):
        """Build the marking graph: ``(markings, edges, vanishing)``.

        Dispatches on the ``engine`` selected at construction; all backends
        return bit-identical results (see ``tests/engine_diff.py``).  A
        resumed analysis (see :func:`repro.engine.runtime.resume`) returns
        its cached exploration instead of re-building; it was explored by
        passing the checkpoint as ``resume_from`` with its reopened
        ``store``.
        """
        if self._exploration is not None:
            return self._exploration
        if self.engine == ENGINE_REFERENCE:
            return self._explore_reference()
        owned = False
        if resume_from is None:
            store, owned = build_store(
                self.engine,
                self.store,
                spill_threshold=self.spill_threshold,
                control=self.control,
            )
        builder = (
            compiled_marking_graph
            if self.engine == ENGINE_COMPILED
            else batched_marking_graph
        )
        try:
            markings, edges, vanishing, self._build_stats = builder(
                self.net,
                immediate=self._immediate,
                weights=self._weights,
                rates=self._rates,
                max_states=self.max_states,
                place_capacity=self.place_capacity,
                store=store,
                control=self.control,
                resume_from=resume_from,
            )
        finally:
            if owned:
                store.close()
        return markings, edges, vanishing

    def build_stats(self):
        """The exploration's :class:`~repro.engine.frontier.FrontierStats`.

        Available after :meth:`_explore`/:meth:`solve` ran with the
        ``"compiled"`` or ``"batched"`` engine (the backends that run the
        shared frontier loop); ``None`` otherwise.
        """
        return self._build_stats

    def _explore_reference(self):
        markings: List[Marking] = []
        index_of: Dict[Marking, int] = {}
        edges: List[Tuple[int, int, str, float, bool]] = []  # src, dst, transition, rate/weight, immediate

        def add(marking: Marking) -> Tuple[int, bool]:
            existing = index_of.get(marking)
            if existing is not None:
                return existing, False
            index = len(markings)
            markings.append(marking)
            index_of[marking] = index
            return index, True

        initial, _ = add(self.net.initial_marking)
        queue = deque([initial])
        while queue:
            index = queue.popleft()
            marking = markings[index]
            enabled = self.net.enabled_transitions(marking)
            if not enabled:
                continue
            immediate_enabled = [name for name in enabled if self._immediate[name]]
            chosen = immediate_enabled if immediate_enabled else list(enabled)
            for name in chosen:
                successor = self.net.fire_untimed(marking, name)
                if self.place_capacity is not None and any(
                    successor[place] > self.place_capacity for place in self.net.place_order
                ):
                    continue
                successor_index, is_new = add(successor)
                if immediate_enabled:
                    edges.append((index, successor_index, name, self._weights[name], True))
                else:
                    edges.append((index, successor_index, name, self._rates[name], False))
                if is_new:
                    if len(markings) > self.max_states:
                        raise UnboundedNetError(
                            f"GSPN marking graph exceeded {self.max_states} markings"
                        )
                    queue.append(successor_index)
        vanishing = {
            index
            for index, marking in enumerate(markings)
            if any(self._immediate[name] for name in self.net.enabled_transitions(marking))
        }
        return markings, edges, vanishing

    # ------------------------------------------------------------------
    # Stationary solution
    # ------------------------------------------------------------------

    def solve(self) -> GSPNResult:
        """Explore, eliminate vanishing markings, and solve the CTMC stationary equations."""
        markings, edges, vanishing = self._explore()
        tangible = [index for index in range(len(markings)) if index not in vanishing]
        if not tangible:
            raise NotErgodicError("the GSPN model has no tangible marking")
        tangible_position = {index: position for position, index in enumerate(tangible)}
        vanishing_list = sorted(vanishing)
        vanishing_position = {index: position for position, index in enumerate(vanishing_list)}

        # Branching probabilities out of vanishing markings.
        vanishing_out: Dict[int, List[Tuple[int, float]]] = {index: [] for index in vanishing_list}
        for source, target, _name, weight, immediate in edges:
            if source in vanishing and immediate:
                vanishing_out[source].append((target, weight))

        # Probability of eventually reaching each tangible marking from each
        # vanishing marking: solve (I - P_vv) X = P_vt.
        v_count = len(vanishing_list)
        t_count = len(tangible)
        if v_count:
            p_vv = np.zeros((v_count, v_count))
            p_vt = np.zeros((v_count, t_count))
            for source in vanishing_list:
                total = sum(weight for _, weight in vanishing_out[source])
                if total <= 0:
                    raise NotErgodicError("a vanishing marking has no outgoing immediate edge")
                for target, weight in vanishing_out[source]:
                    probability = weight / total
                    if target in vanishing:
                        p_vv[vanishing_position[source], vanishing_position[target]] += probability
                    else:
                        p_vt[vanishing_position[source], tangible_position[target]] += probability
            try:
                absorption = np.linalg.solve(np.eye(v_count) - p_vv, p_vt)
            except np.linalg.LinAlgError as error:
                raise NotErgodicError(
                    "vanishing-marking elimination failed (immediate-transition loop?)"
                ) from error
        else:
            absorption = np.zeros((0, t_count))

        # CTMC generator over tangible markings.
        generator = np.zeros((t_count, t_count))
        for source, target, _name, rate, immediate in edges:
            if immediate or source in vanishing:
                continue
            row = tangible_position[source]
            if target in vanishing:
                distribution = absorption[vanishing_position[target]]
                generator[row] += rate * distribution
            else:
                generator[row, tangible_position[target]] += rate
        for row in range(t_count):
            generator[row, row] -= generator[row].sum()

        # Solve pi Q = 0 with sum(pi) = 1.
        system = np.vstack([generator.T, np.ones(t_count)])
        rhs = np.zeros(t_count + 1)
        rhs[-1] = 1.0
        solution, residuals, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
        if rank < t_count:
            raise NotErgodicError("the tangible CTMC is reducible; no unique stationary distribution")
        stationary = np.clip(solution, 0.0, None)
        stationary = stationary / stationary.sum()

        throughput: Dict[str, float] = {name: 0.0 for name in self.net.transition_order}
        utilization: Dict[str, float] = {name: 0.0 for name in self.net.transition_order}
        for position, index in enumerate(tangible):
            marking = markings[index]
            probability = float(stationary[position])
            for name in self.net.enabled_transitions(marking):
                if self._immediate[name]:
                    continue
                throughput[name] += probability * self._rates[name]
                utilization[name] += probability
        # Immediate transitions: throughput equals the flow into the vanishing
        # markings that fire them; approximate by the throughput of their
        # upstream timed transition(s) is model-specific, so we report the
        # rate at which their input markings are entered instead.
        return GSPNResult(
            tangible_markings=tuple(markings[index] for index in tangible),
            stationary=stationary,
            throughput=throughput,
            utilization=utilization,
        )


def _resume_analysis(net, *, store, control, resume_from) -> GSPNAnalysis:
    """The analysis a ``gspn``/``batched-gspn`` checkpoint continues, with
    its exploration completed (called by :func:`repro.engine.runtime.resume`)."""
    params = resume_from.manifest["params"]
    analysis = GSPNAnalysis(
        net,
        max_states=params["max_states"],
        place_capacity=params["place_capacity"],
        engine=ENGINE_BATCHED if resume_from.kind == "batched-gspn" else ENGINE_COMPILED,
        control=control,
    )
    # The checkpointed immediate/weight/rate maps override the defaults the
    # constructor derived from the net: explicit rates= overrides passed to
    # the original analysis live only in these maps.
    analysis._immediate = dict(params["immediate"])
    analysis._weights = dict(params["weights"])
    analysis._rates = dict(params["rates"])
    analysis._exploration = analysis._explore(store=store, resume_from=resume_from)
    return analysis


def gspn_throughput(net: TimedPetriNet, transition_name: str, **kwargs) -> float:
    """Convenience wrapper: exponential-delay throughput of one transition."""
    return GSPNAnalysis(net, **kwargs).solve().throughput[transition_name]
