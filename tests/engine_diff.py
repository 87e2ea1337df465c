"""Shared differential-test harness: reference vs compiled vs batched engines.

Every graph builder with a compiled backend keeps an ``engine="reference"``
escape hatch and must produce **bit-identical** graphs through every engine:
same node order, same edge order, same delays/probabilities/labels, same
rates and weights.  The untimed reachability and GSPN builders additionally
accept ``engine="batched"`` (the numpy level-batched kernel of
:mod:`repro.engine.batched`), held to the same bit-identical standard: its
level-at-a-time discoveries must be renumbered into the exact FIFO order of
the one-state-at-a-time loops.  This module centralizes

* the workload registry (every bundled numeric model — the three protocol
  nets plus the producer/consumer, token-ring, sliding-window, go-back-N
  and selective-repeat workloads — the timed window models, and the
  symbolic paper net), and
* the engine builders and exact graph-equality assertions for all four
  graph families (timed, untimed reachability, coverability, GSPN marking
  graph),

so ``tests/test_engine_diff.py``, ``tests/test_engine_random.py``,
``tests/test_compiled_engine.py`` and the cache-determinism gate of
``tests/test_analysis_cache.py`` (a warm artifact-cache hit must be
bit-identical to a cold build) share one comparison instead of each
growing its own copy.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.petri import coverability_graph, reachability_graph
from repro.protocols import (
    alternating_bit_net,
    go_back_n_net,
    pipelined_stop_and_wait_net,
    producer_consumer_net,
    selective_repeat_net,
    simple_protocol_net,
    simple_protocol_symbolic,
    sliding_window_net,
    token_ring_net,
)
from repro.reachability import symbolic_timed_reachability_graph, timed_reachability_graph
from repro.stochastic import GSPNAnalysis

#: Every bundled numeric workload: the three protocol nets (paper protocol,
#: alternating bit, pipelined stop-and-wait) plus the scaling models.
NUMERIC_WORKLOADS = [
    ("paper-protocol", simple_protocol_net),
    ("alternating-bit", alternating_bit_net),
    ("pipelined-stop-and-wait", lambda: pipelined_stop_and_wait_net(2)),
    ("producer-consumer", lambda: producer_consumer_net(loss_probability=Fraction(1, 5))),
    ("token-ring", lambda: token_ring_net(5)),
    ("sliding-window", lambda: sliding_window_net(2, loss_probability=Fraction(1, 10))),
    ("sliding-window-lossless", lambda: sliding_window_net(3)),
    ("go-back-n", lambda: go_back_n_net(2, loss_probability=Fraction(1, 10))),
    (
        "selective-repeat",
        lambda: selective_repeat_net(2, loss_probability=Fraction(1, 10)),
    ),
]

WORKLOAD_IDS = [label for label, _constructor in NUMERIC_WORKLOADS]

#: Workloads whose *untimed* graph is unbounded (the untimed firing rule
#: lets timeouts flood the medium); every engine must fail identically on
#: them instead of producing a graph.
UNBOUNDED_UNTIMED = frozenset(
    {"paper-protocol", "alternating-bit", "pipelined-stop-and-wait"}
)

#: Workloads for the *timed* differential check.  The lossy window models
#: matter here: their per-slot timers produce the decision-heavy graphs the
#: compiled timed engine memoizes hardest (branch probabilities, advance
#: steps), so the timed parity gate must cover them and not just the paper
#: protocol.
TIMED_WORKLOADS = [
    ("paper-protocol", simple_protocol_net),
    (
        "sliding-window-3-lossy",
        lambda: sliding_window_net(3, loss_probability=Fraction(1, 10)),
    ),
    ("go-back-n-3-lossy", lambda: go_back_n_net(3, loss_probability=Fraction(1, 10))),
    (
        "selective-repeat-3-lossy",
        lambda: selective_repeat_net(3, loss_probability=Fraction(1, 10)),
    ),
]

TIMED_WORKLOAD_IDS = [label for label, _constructor in TIMED_WORKLOADS]


def symbolic_workload():
    """The symbolic paper net with its Section-4 constraints."""
    net, constraints, _symbols = simple_protocol_symbolic()
    return net, constraints


# ---------------------------------------------------------------------------
# Pairwise builders
# ---------------------------------------------------------------------------


def build_timed_pair(net, **kwargs):
    """(compiled, reference) numeric timed reachability graphs."""
    return (
        timed_reachability_graph(net, engine="compiled", **kwargs),
        timed_reachability_graph(net, engine="reference", **kwargs),
    )


def build_symbolic_timed_pair(net, constraints, **kwargs):
    """(compiled, reference) symbolic timed reachability graphs."""
    return (
        symbolic_timed_reachability_graph(net, constraints, engine="compiled", **kwargs),
        symbolic_timed_reachability_graph(net, constraints, engine="reference", **kwargs),
    )


def build_timed_cached_roundtrip(net, **kwargs):
    """(cold, warm) numeric timed graphs: build vs artifact-codec rehydration.

    The warm graph goes through the exact bytes a disk cache hit would read
    (:mod:`repro.analysis.codec`), so holding the pair to
    :func:`assert_timed_graphs_identical` is the cache-determinism gate.
    """
    from repro.analysis import decode_timed_graph, encode_timed_graph

    cold = timed_reachability_graph(net, **kwargs)
    return cold, decode_timed_graph(encode_timed_graph(cold), net)


def build_symbolic_timed_cached_roundtrip(net, constraints, **kwargs):
    """(cold, warm) symbolic timed graphs through the artifact codec."""
    from repro.analysis import decode_timed_graph, encode_timed_graph

    cold = symbolic_timed_reachability_graph(net, constraints, **kwargs)
    return cold, decode_timed_graph(encode_timed_graph(cold), net)


def build_untimed_pair(net, **kwargs):
    """(compiled, reference) untimed reachability graphs."""
    return (
        reachability_graph(net, engine="compiled", **kwargs),
        reachability_graph(net, engine="reference", **kwargs),
    )


def build_untimed_batched(net, **kwargs):
    """The numpy level-batched untimed reachability graph (third engine value)."""
    return reachability_graph(net, engine="batched", **kwargs)


def build_coverability_pair(net, **kwargs):
    """(compiled, reference) Karp–Miller coverability graphs."""
    return (
        coverability_graph(net, engine="compiled", **kwargs),
        coverability_graph(net, engine="reference", **kwargs),
    )


#: Spill thresholds the disk-store differential builds run at: spill before
#: the seed (0), spill after the first interned state (1, exercising the
#: mid-build migration of resident tables), and never spill (None, the pure
#: in-memory hybrid).  Bit-identity must hold at every point.
SPILL_THRESHOLDS = (0, 1, None)


def build_untimed_spill(net, *, engine="compiled", spill_threshold=0, **kwargs):
    """An untimed reachability graph built through the disk-backed store."""
    return reachability_graph(
        net, engine=engine, store="disk", spill_threshold=spill_threshold, **kwargs
    )


def build_coverability_spill(net, *, spill_threshold=0, **kwargs):
    """A Karp–Miller coverability graph built through the disk-backed store."""
    return coverability_graph(
        net, store="disk", spill_threshold=spill_threshold, **kwargs
    )


def build_gspn_spill(net, *, engine="compiled", spill_threshold=0, **kwargs):
    """A GSPN analysis built through the disk-backed store (not yet solved)."""
    return GSPNAnalysis(
        net, engine=engine, store="disk", spill_threshold=spill_threshold, **kwargs
    )


def build_gspn_pair(net, **kwargs):
    """(compiled, reference) GSPN analyses (not yet solved)."""
    return (
        GSPNAnalysis(net, engine="compiled", **kwargs),
        GSPNAnalysis(net, engine="reference", **kwargs),
    )


def build_gspn_batched(net, **kwargs):
    """The numpy level-batched GSPN analysis (third engine value, not yet solved)."""
    return GSPNAnalysis(net, engine="batched", **kwargs)


# ---------------------------------------------------------------------------
# Interrupt / resume builders
# ---------------------------------------------------------------------------
#
# The robustness gate: a build interrupted at an arbitrary point and resumed
# from its checkpoint must be bit-identical to a cold build, through the
# same assertions below.  ``build`` is a one-argument callable receiving the
# RunControl (e.g. ``lambda control: reachability_graph(net, control=control,
# ...)``) so every store-capable builder plugs into the same two drivers.


def interrupt_and_resume(
    build, *, checkpoint_dir, expire_after, resume_budget=25, max_rounds=400
):
    """Deadline-interrupt ``build(control)`` after ``expire_after`` clock
    readings (deterministic via :class:`~repro.engine.faults.SteppingClock`),
    then resume the checkpoint chain to completion.

    Returns ``(artifact, interrupted)``; ``interrupted`` is False when the
    build finished inside the budget (callers asserting interruption should
    pick a smaller ``expire_after``).  Each resume round runs under its own
    stepping deadline of ``resume_budget`` readings, so large workloads
    converge in bounded rounds while small ones still chain several
    interruptions; ``max_rounds`` guards against a chain that stops making
    progress.
    """
    from repro.engine.faults import SteppingClock
    from repro.engine.runtime import RunControl, resume
    from repro.exceptions import BuildInterruptedError

    def fresh_control(budget):
        return RunControl(
            deadline=float(budget),
            checkpoint_dir=checkpoint_dir,
            clock=SteppingClock(),
        )

    try:
        return build(fresh_control(expire_after)), False
    except BuildInterruptedError as error:
        assert error.checkpoint is not None, "interrupted build left no checkpoint"
        checkpoint = error.checkpoint
    last_cursor = -1
    for _ in range(max_rounds):
        assert checkpoint.cursor > last_cursor, "resume made no progress"
        last_cursor = checkpoint.cursor
        try:
            return resume(checkpoint, control=fresh_control(resume_budget)), True
        except BuildInterruptedError as error:
            assert error.checkpoint is not None
            checkpoint = error.checkpoint
    raise AssertionError(f"no convergence after {max_rounds} resume rounds")


def crash_and_resume(build, *, checkpoint_dir, crash_at, checkpoint_every=1):
    """Hard-crash ``build(control)`` at expansion ``crash_at`` (injected
    :class:`~repro.engine.faults.InjectedFailure`, simulating a process
    kill: no final checkpoint) and complete from the last *periodic*
    checkpoint.  ``crash_at`` must be >= ``checkpoint_every + 1`` so at
    least one periodic manifest exists.  Returns the resumed artifact.
    """
    from repro.engine import faults
    from repro.engine.faults import FaultPlan, InjectedFailure
    from repro.engine.runtime import Checkpoint, RunControl, resume

    control = RunControl(
        checkpoint_every=checkpoint_every, checkpoint_dir=checkpoint_dir
    )
    with faults.inject(FaultPlan(crash_at_expansion=crash_at)):
        try:
            build(control)
        except InjectedFailure:
            pass
        else:
            raise AssertionError(
                f"build finished before the injected crash at {crash_at}"
            )
    return resume(Checkpoint.load(checkpoint_dir))


# ---------------------------------------------------------------------------
# Exact-equality assertions
# ---------------------------------------------------------------------------


def timed_edge_payloads(graph):
    """Everything observable on a timed edge, for exact comparison."""
    return [
        (
            edge.source,
            edge.target,
            edge.delay,
            edge.probability,
            edge.fired,
            edge.completed,
            edge.kind,
            edge.used_constraints,
        )
        for edge in graph.edges
    ]


def assert_timed_graphs_identical(compiled, reference):
    """Bit-identical timed reachability graphs (numeric or symbolic)."""
    assert compiled.state_count == reference.state_count
    assert compiled.edge_count == reference.edge_count
    assert compiled.initial_index == reference.initial_index
    assert [node.state for node in compiled.nodes] == [node.state for node in reference.nodes]
    assert timed_edge_payloads(compiled) == timed_edge_payloads(reference)
    assert compiled.state_table() == reference.state_table()
    assert compiled.edge_table() == reference.edge_table()
    assert sorted(compiled.index_of.values()) == sorted(reference.index_of.values())


def assert_untimed_graphs_identical(compiled, reference):
    """Bit-identical untimed reachability graphs."""
    assert compiled.state_count == reference.state_count
    assert compiled.edge_count == reference.edge_count
    assert compiled.markings == reference.markings
    assert compiled.edges == reference.edges
    assert compiled.index_of == reference.index_of
    for index in range(compiled.state_count):
        assert compiled.successors(index) == reference.successors(index)
    assert compiled.max_tokens_per_place() == reference.max_tokens_per_place()
    assert compiled.dead_markings() == reference.dead_markings()
    assert compiled.fired_transitions() == reference.fired_transitions()


def assert_coverability_graphs_identical(compiled, reference):
    """Bit-identical Karp–Miller coverability graphs."""
    assert compiled.node_count == reference.node_count
    assert [node.vector for node in compiled.nodes] == [node.vector for node in reference.nodes]
    assert compiled.edges == reference.edges
    assert compiled.index_of == reference.index_of
    assert compiled.is_bounded() == reference.is_bounded()
    assert compiled.unbounded_places() == reference.unbounded_places()


def assert_gspn_explorations_identical(compiled_analysis, reference_analysis):
    """Bit-identical GSPN marking graphs (markings, edges, vanishing set)."""
    compiled_markings, compiled_edges, compiled_vanishing = compiled_analysis._explore()
    reference_markings, reference_edges, reference_vanishing = reference_analysis._explore()
    assert compiled_markings == reference_markings
    assert compiled_edges == reference_edges
    assert compiled_vanishing == reference_vanishing


def assert_gspn_results_identical(compiled_result, reference_result):
    """Bit-identical stationary GSPN results (same exploration → same CTMC)."""
    assert compiled_result.tangible_markings == reference_result.tangible_markings
    assert np.array_equal(compiled_result.stationary, reference_result.stationary)
    assert compiled_result.throughput == reference_result.throughput
    assert compiled_result.utilization == reference_result.utilization
