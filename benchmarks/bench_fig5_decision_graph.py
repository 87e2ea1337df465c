"""E5 — Figure 5: the numeric decision graph of the simple protocol.

Regenerates the two decision nodes, the four collapsed edges, their branching
probabilities (0.95 / 0.05) and their delays (1002, 120.2, 122.2, 881.8 ms),
and times the collapse.

The second half benchmarks the *generalized* collapse on the models the
strict paper-shaped collapse rejects: the lossless windows fold their
committed cycles by cycle-time analysis (24 cycles for ``window=4``) and the
collapse throughput lands in the ``REPRO_BENCH_JSON`` report next to the
engine rows.
"""

from __future__ import annotations

from fractions import Fraction

from repro.performance import PerformanceMetrics
from repro.protocols import (
    PAPER_DECISION_DELAYS,
    selective_repeat_net,
    sliding_window_net,
)
from repro.reachability import decision_graph, timed_reachability_graph
from repro.viz import ExperimentReport, format_table

from conftest import best_timed, emit, record_bench


def build_decision_graph(net):
    return decision_graph(timed_reachability_graph(net))


def test_fig5_decision_graph(benchmark, paper_net):
    decision = benchmark(build_decision_graph, paper_net)

    report = ExperimentReport("E5", "Figure 5 — decision graph")
    report.add("decision nodes", 2, decision.anchor_count)
    report.add("edges", 4, decision.edge_count)

    by_delay = {edge.delay: edge for edge in decision.edges}
    expectations = [
        ("packet lost (3 -> 3)", PAPER_DECISION_DELAYS["packet_lost"], Fraction(1, 20)),
        ("packet delivered (3 -> 11)", PAPER_DECISION_DELAYS["packet_delivered"], Fraction(19, 20)),
        ("ack delivered (11 -> 3)", PAPER_DECISION_DELAYS["ack_delivered"], Fraction(19, 20)),
        ("ack lost (11 -> 3)", PAPER_DECISION_DELAYS["ack_lost"], Fraction(1, 20)),
    ]
    for label, delay, probability in expectations:
        edge = by_delay.get(delay)
        report.add(
            f"{label}: delay [ms]",
            float(delay),
            float(edge.delay) if edge else "missing",
        )
        report.add(
            f"{label}: probability",
            str(probability),
            str(edge.probability) if edge else "missing",
        )

    print()
    print("Figure 5 — decision graph edges (reproduced):")
    print(format_table(("edge", "from state", "to state", "probability", "delay [ms]"), decision.edge_table(), align_right=False))
    emit(report)


#: Generalized-collapse benchmark rows: (label, constructor, expected
#: folded-cycle count, per-slot throughput transition).  The lossless
#: sliding windows are the workloads the strict collapse rejects (their
#: committed cycles must be folded); the fully decision-free selective
#: repeat is the control row — its steady cycle is handled by the classical
#: fallback anchor, so 0 folded cycles, same closed form.
COLLAPSED_CYCLE_MODELS = [
    ("sliding window, 3 frames, lossless", lambda: sliding_window_net(3), 6, "w0_ack_return"),
    ("sliding window, 4 frames, lossless", lambda: sliding_window_net(4), 24, "w0_ack_return"),
    ("selective repeat, 2 frames, lossless (control)", lambda: selective_repeat_net(2), 0, "sr0_ack_return"),
]


def test_fig5_collapsed_cycle_rows():
    """Generalized-collapse benchmark: fold committed cycles, time the fold.

    Asserts the closed forms (cycle time 10 ms, per-slot throughput 1/10)
    the cross-validation suite confirms against the GSPN solver and the
    simulator, and reports the collapse's TRG-states-per-second throughput
    through the ``REPRO_BENCH_JSON`` hook so CI tracks it across PRs.
    """
    report = ExperimentReport(
        "E5b", "Generalized decision-graph collapse — committed-cycle folding"
    )
    rows = []
    for label, constructor, expected_cycles, transition in COLLAPSED_CYCLE_MODELS:
        trg = timed_reachability_graph(constructor())
        seconds, graph = best_timed(lambda: decision_graph(trg))
        metrics = PerformanceMetrics(graph)
        report.add(f"{label}: folded cycles", expected_cycles, len(graph.folded_cycles))
        report.add(
            f"{label}: per-slot throughput [1/ms]",
            str(Fraction(1, 10)),
            str(metrics.throughput(transition)),
        )
        rows.append(
            (
                label,
                trg.state_count,
                len(graph.folded_cycles),
                str(metrics.cycle_time()),
                f"{trg.state_count / seconds:,.0f}",
            )
        )
        record_bench(label, "decision-collapse-fold", trg.state_count, seconds)

    print()
    print("Generalized collapse — collapsed-cycle rows:")
    print(
        format_table(
            ("model", "TRG states", "folded cycles", "cycle time [ms]", "collapse states/s"),
            rows,
            align_right=False,
        )
    )
    emit(report)
