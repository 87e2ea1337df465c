"""E13 — scaling: timed reachability graph size and engine throughput.

Reports how the state space grows from the paper's 18-state protocol to the
alternating-bit extension, token rings of increasing size, sliding-window /
go-back-N senders and a pipelined stop-and-wait with interfering timers, and
compares the states/second of the two construction engines (the compiled
integer-indexed engine of :mod:`repro.reachability.compiled` against the
readable reference procedure).  The untimed builders are compared the same
way: :func:`repro.petri.untimed.reachability_graph` and the Karp–Miller
coverability construction both have compiled backends on the shared
:mod:`repro.engine` tables, and the untimed builder additionally has the
numpy level-batched kernel (``engine="batched"``), measured against the
scalar compiled baseline below.  The point (made qualitatively in the paper's
Section 3) is that the method is exact but its graph can grow quickly once
several timers run concurrently — which is exactly why the construction hot
path is worth compiling.

Micro-benchmark note: part of the reference engine's per-state cost used to
be ``Marking.__getitem__`` scanning the place-order tuple on every token
lookup (O(P) per access); markings now answer membership from a precomputed
frozenset, so both engines profit, and the remaining gap measured below is
the compiled engine's indexing, interning and incremental enabled-set
bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

from repro.petri import coverability_graph, reachability_graph
from repro.protocols import (
    alternating_bit_net,
    go_back_n_net,
    pipelined_stop_and_wait_net,
    simple_protocol_net,
    simple_protocol_symbolic,
    sliding_window_net,
    token_ring_net,
)
from repro.reachability import symbolic_timed_reachability_graph, timed_reachability_graph
from repro.reachability.algebra import branch_cache_stats, clear_branch_caches
from repro.viz import ExperimentReport, format_table

from conftest import best_timed, emit, measure_once, record_bench, soft_or_fail

MODELS = [
    ("simple protocol (Figure 1)", simple_protocol_net, 18),
    ("alternating bit", alternating_bit_net, 52),
    ("token ring, 3 stations", lambda: token_ring_net(3), 12),
    ("token ring, 6 stations", lambda: token_ring_net(6), 24),
    ("sliding window, 2 frames", lambda: sliding_window_net(2), 27),
    ("sliding window, 2 frames, lossy", lambda: sliding_window_net(2, loss_probability=Fraction(1, 10)), 564),
    ("go-back-N, 2 frames, lossy", lambda: go_back_n_net(2, loss_probability=Fraction(1, 10)), 120),
    ("pipelined stop-and-wait, 1 channel", lambda: pipelined_stop_and_wait_net(1), 12),
    ("pipelined stop-and-wait, 2 channels", lambda: pipelined_stop_and_wait_net(2), 665),
]

#: Workloads for the compiled-vs-reference states/second comparison.  The
#: token-ring entry is the headline: the reference engine rescans every
#: transition per state, so its cost grows quadratically with ring size
#: while the compiled engine's incremental enabled-set stays linear.
ENGINE_MODELS = [
    ("token ring, 48 stations", lambda: token_ring_net(48)),
    ("sliding window, 2 frames, lossy", lambda: sliding_window_net(2, loss_probability=Fraction(1, 10))),
    ("go-back-N, 3 frames, lossy", lambda: go_back_n_net(3, loss_probability=Fraction(1, 10))),
    ("pipelined stop-and-wait, 2 channels", lambda: pipelined_stop_and_wait_net(2)),
]

#: Workloads for the *untimed* reachability engine comparison (the shared
#: :mod:`repro.engine` backend that replaced the per-marking transition
#: rescans).  ``sliding_window_net(3)`` is the acceptance headline: the
#: compiled builder must be at least 2x faster on it.
UNTIMED_ENGINE_MODELS = [
    ("sliding window, 3 frames", lambda: sliding_window_net(3)),
    ("sliding window, 4 frames, lossy", lambda: sliding_window_net(4, loss_probability=Fraction(1, 10))),
    ("go-back-N, 3 frames, lossy", lambda: go_back_n_net(3, loss_probability=Fraction(1, 10))),
    ("token ring, 48 stations", lambda: token_ring_net(48)),
]

#: Workloads for the scalar-vs-batched kernel comparison on the shared
#: frontier core.  The lossy window-4 sender is the acceptance headline
#: (wide BFS levels, so whole-frontier numpy expansion amortizes); the
#: token-ring row is the deliberate counter-example — its frontier is one
#: state wide at every level (mean batch width 1.0), so batching cannot
#: pay there and the row is reported but held to no speedup floor.
BATCHED_ENGINE_MODELS = [
    ("sliding window, 4 frames, lossy", lambda: sliding_window_net(4, loss_probability=Fraction(1, 10))),
    ("go-back-N, 3 frames, lossy", lambda: go_back_n_net(3, loss_probability=Fraction(1, 10))),
    ("sliding window, 6 frames, lossy", lambda: sliding_window_net(6, loss_probability=Fraction(1, 10))),
    ("token ring, 48 stations", lambda: token_ring_net(48)),
]

#: Batched rows held to the "no slower than scalar compiled" floor: every
#: wide-frontier workload (all but the token ring).
BATCHED_FLOOR_MODELS = frozenset(label for label, _constructor in BATCHED_ENGINE_MODELS[:3])


def timed_window_net():
    """The standing timed scale workload: the lossy window-4 sender with
    compressed delays (packet/ack 2, timeout 6) closes at ~35k timed states —
    big enough to measure, small enough for CI."""
    return sliding_window_net(
        4,
        loss_probability=Fraction(1, 10),
        packet_delay=2,
        ack_delay=2,
        timeout=6,
    )


def build_all():
    sizes = []
    for label, constructor, _expected in MODELS:
        graph = timed_reachability_graph(constructor(), max_states=20_000)
        sizes.append((label, graph.state_count, graph.edge_count, len(graph.decision_nodes())))
    return sizes


def best_build_time(net, engine, repetitions=3):
    best, graph = best_timed(
        lambda: timed_reachability_graph(net, max_states=200_000, engine=engine),
        repetitions=repetitions,
    )
    return best, graph.state_count


def test_scaling_reachability(benchmark):
    sizes = benchmark(build_all)

    report = ExperimentReport("E13", "Scaling — timed reachability graph size across models")
    for (label, _constructor, expected), (label2, states, _edges, _decisions) in zip(MODELS, sizes):
        assert label == label2
        report.add(f"{label}: states", expected, states)
    report.note(
        "Two interfering channels already grow the graph by ~37x over one channel, "
        "and a lossy sliding window by ~21x over the lossless one: concurrent "
        "free-running timers multiply the relative clock phases, which is the "
        "practical limit of exhaustive timed reachability the paper alludes to. "
        "(With the paper's incommensurable 106.7/13.5/1000 ms delays the "
        "two-channel graph does not close at all; the scaling models therefore "
        "use small integer delays.)"
    )

    print()
    print(
        format_table(
            ("model", "states", "edges", "decision nodes"),
            [(label, states, edges, decisions) for label, states, edges, decisions in sizes],
            align_right=False,
        )
    )
    emit(report)


def test_engine_states_per_second():
    """Compiled vs. reference engine throughput (states/second)."""
    rows = []
    speedups = {}
    for label, constructor in ENGINE_MODELS:
        net = constructor()
        reference_time, states = best_build_time(net, "reference")
        compiled_time, compiled_states = best_build_time(net, "compiled")
        assert states == compiled_states, label
        record_bench(label, "timed/reference", states, reference_time)
        record_bench(label, "timed/compiled", states, compiled_time)
        speedups[label] = reference_time / compiled_time
        rows.append(
            (
                label,
                states,
                f"{states / reference_time:,.0f}",
                f"{states / compiled_time:,.0f}",
                f"{reference_time / compiled_time:.2f}x",
            )
        )

    print()
    print(
        format_table(
            ("model", "states", "reference states/s", "compiled states/s", "speedup"),
            rows,
            align_right=False,
        )
    )

    # The headline acceptance number: the compiled engine must be at least
    # 3x faster on the token-ring scaling workload (it is typically 4-7x),
    # and no workload may regress below the reference engine.  Wall-clock
    # ratios are noisy on shared CI runners, so with REPRO_BENCH_SOFT set a
    # miss only warns instead of failing the run.
    ring_label = ENGINE_MODELS[0][0]
    problems = []
    if speedups[ring_label] < 3.0:
        problems.append(f"token-ring speedup regressed: {speedups[ring_label]:.2f}x < 3x")
    for label, speedup in speedups.items():
        if speedup < 1.0:
            problems.append(f"{label}: compiled engine slower than reference ({speedup:.2f}x)")
    soft_or_fail(problems)


def test_untimed_engine_states_per_second():
    """Compiled vs. reference *untimed* reachability throughput (states/second)."""
    rows = []
    speedups = {}
    for label, constructor in UNTIMED_ENGINE_MODELS:
        net = constructor()
        reference_time, reference = measure_once(
            label, "untimed/reference", lambda: reachability_graph(net, engine="reference")
        )
        compiled_time, compiled = measure_once(
            label, "untimed/compiled", lambda: reachability_graph(net, engine="compiled")
        )
        assert compiled.state_count == reference.state_count, label
        speedups[label] = reference_time / compiled_time
        rows.append(
            (
                label,
                compiled.state_count,
                f"{compiled.state_count / reference_time:,.0f}",
                f"{compiled.state_count / compiled_time:,.0f}",
                f"{speedups[label]:.2f}x",
            )
        )

    print()
    print(
        format_table(
            ("model (untimed)", "states", "reference states/s", "compiled states/s", "speedup"),
            rows,
            align_right=False,
        )
    )

    # The acceptance headline: the compiled untimed builder must be at least
    # 2x faster on sliding_window_net(3) (it is typically 4-6x), and no
    # workload may regress below the reference engine.
    headline = UNTIMED_ENGINE_MODELS[0][0]
    problems = []
    if speedups[headline] < 2.0:
        problems.append(f"sliding-window untimed speedup regressed: {speedups[headline]:.2f}x < 2x")
    for label, speedup in speedups.items():
        if speedup < 1.0:
            problems.append(f"{label}: compiled untimed builder slower than reference ({speedup:.2f}x)")
    soft_or_fail(problems)


def test_batched_engine_states_per_second():
    """Numpy level-batched vs scalar compiled untimed BFS (states/second).

    Both engines run the same shared frontier core; the batched kernel
    expands whole BFS levels as numpy batches (enabledness matmuls, packed
    int64 dedup keys) instead of one state per step, and stays bit-identical
    (the differential suite gates that — this benchmark only measures).
    """
    rows = []
    speedups = {}
    for label, constructor in BATCHED_ENGINE_MODELS:
        net = constructor()
        repetitions = 3 if "6 frames" in label else 5
        compiled_time, compiled = measure_once(
            label,
            "untimed/compiled",
            lambda: reachability_graph(net, engine="compiled"),
            repetitions=repetitions,
        )
        batched_time, batched = measure_once(
            label,
            "untimed/batched",
            lambda: reachability_graph(net, engine="batched"),
            repetitions=repetitions,
        )
        assert batched.state_count == compiled.state_count, label
        assert batched.edge_count == compiled.edge_count, label
        speedups[label] = compiled_time / batched_time
        stats = batched.build_stats()
        rows.append(
            (
                label,
                batched.state_count,
                f"{batched.state_count / compiled_time:,.0f}",
                f"{batched.state_count / batched_time:,.0f}",
                f"{stats.mean_batch_width:.1f}",
                f"{speedups[label]:.2f}x",
            )
        )

    print()
    print(
        format_table(
            (
                "model (untimed)",
                "states",
                "compiled states/s",
                "batched states/s",
                "mean batch width",
                "speedup",
            ),
            rows,
            align_right=False,
        )
    )

    # Acceptance headline: the batched kernel must deliver at least 5x the
    # scalar compiled states/s on the lossy window-4 workload (typically
    # 6-8x; window-6 reaches ~20x), and no *wide-frontier* workload may
    # fall below the scalar engine.  The token-ring row is exempt: its
    # levels are one state wide, so the batch machinery is pure overhead
    # there by construction (that is what the mean-batch-width column
    # documents).  Wall-clock ratios are noisy on shared runners — run
    # with REPRO_BENCH_SOFT to warn instead of fail.
    headline = BATCHED_ENGINE_MODELS[0][0]
    problems = []
    if speedups[headline] < 5.0:
        problems.append(
            f"batched kernel below 5x on {headline}: {speedups[headline]:.2f}x"
        )
    for label in BATCHED_FLOOR_MODELS:
        if speedups[label] < 1.0:
            problems.append(
                f"{label}: batched kernel slower than scalar compiled ({speedups[label]:.2f}x)"
            )
    soft_or_fail(problems)


def test_window_branch_probability_caches():
    """Cache telemetry of the window workloads: branch probabilities + comparator.

    Repeated builds of the lossy window models must stop re-deriving their
    branch-probability quotients (the per-slot deliver/lose decision recurs
    with identical frequency tuples), and the symbolic paper net reports the
    comparator's Fourier–Motzkin entailment-cache footprint alongside the
    shared RatFunc cache.
    """
    clear_branch_caches()
    rows = []

    def numeric_build():
        return timed_reachability_graph(
            sliding_window_net(2, loss_probability=Fraction(1, 10))
        )

    numeric_build()
    first = branch_cache_stats()["numeric"]
    for _ in range(3):
        numeric_build()
    after = branch_cache_stats()["numeric"]
    rows.append(
        (
            "numeric branch cache (4x sliding window, 2 frames, lossy)",
            after["size"],
            after["hits"],
            after["misses"],
            f"{after['hit_rate']:.1%}",
        )
    )
    # Repeat builds must be pure hits: no derivation happens after the first.
    assert after["size"] == first["size"]
    assert after["misses"] == first["misses"]
    assert after["hits"] > first["hits"]

    for _ in range(3):
        net, constraints, _symbols = simple_protocol_symbolic()
        symbolic_timed_reachability_graph(net, constraints)
    symbolic = branch_cache_stats()["symbolic"]
    rows.append(
        (
            "symbolic branch cache (3x symbolic paper net)",
            symbolic["size"],
            symbolic["hits"],
            symbolic["misses"],
            f"{symbolic['hit_rate']:.1%}",
        )
    )
    assert symbolic["hits"] > 0

    print()
    print(
        format_table(
            ("cache", "size", "hits", "misses", "hit rate"),
            rows,
            align_right=False,
        )
    )

    # Profile the comparator's Fourier–Motzkin entailment cache under the
    # paper's constraint set by running one construction on an explicitly
    # built algebra pair (the public builder hides its algebras).
    from repro.reachability.algebra import symbolic_algebras
    from repro.reachability.compiled import build_compiled_graph

    net, constraints, _symbols = simple_protocol_symbolic()
    time_algebra, probability_algebra = symbolic_algebras(constraints)
    graph = build_compiled_graph(
        net,
        time_algebra,
        probability_algebra,
        symbolic=True,
        constraints=constraints,
        max_states=100_000,
    )
    print(
        f"symbolic comparator: {time_algebra.comparator.cache_size()} memoized "
        f"entailment queries for {graph.state_count} states / {graph.edge_count} edges"
    )
    assert time_algebra.comparator.cache_size() > 0
    clear_branch_caches()


def test_spill_store_states_per_second():
    """In-memory vs disk-spilled full builds through the batched kernel.

    The disk-backed state store (``store="disk"``, ``spill_threshold=0`` —
    every interned state goes through the SQLite shards) trades states/s for
    bounded resident memory; this row documents the price of that trade on
    the batched headline workload.  Correctness is gated elsewhere (the
    spill builds are bit-identical per ``tests/test_store_query.py``); the
    only floor here is that spilling must not collapse throughput entirely.
    """
    label, constructor = BATCHED_ENGINE_MODELS[0]
    net = constructor()
    memory_time, in_memory = measure_once(
        label, "untimed/batched", lambda: reachability_graph(net, engine="batched")
    )
    spill_time, spilled = best_timed(
        lambda: reachability_graph(
            net, engine="batched", store="disk", spill_threshold=0
        ),
        repetitions=3,
    )
    assert spilled.state_count == in_memory.state_count
    assert spilled.edge_count == in_memory.edge_count
    stats = spilled.build_stats()
    assert stats.spilled_states == spilled.state_count
    assert stats.spill_bytes > 0
    record_bench(label, "untimed/batched+spill", spilled.state_count, spill_time)
    overhead = spill_time / memory_time

    print()
    print(
        format_table(
            (
                "model (untimed, batched)",
                "states",
                "in-memory states/s",
                "spilled states/s",
                "spill MB",
                "overhead",
            ),
            [
                (
                    label,
                    spilled.state_count,
                    f"{in_memory.state_count / memory_time:,.0f}",
                    f"{spilled.state_count / spill_time:,.0f}",
                    f"{stats.spill_bytes / 1e6:.1f}",
                    f"{overhead:.2f}x",
                )
            ],
            align_right=False,
        )
    )

    problems = []
    if overhead > 50.0:
        problems.append(
            f"disk spill overhead collapsed throughput on {label}: {overhead:.1f}x"
        )
    soft_or_fail(problems)


def test_gspn_lazy_columnar_adoption():
    """Lazy vs forced adoption of the batched GSPN kernel's columnar output.

    ``batched_marking_graph`` used to convert its columnar numpy arrays into
    Python ``Marking`` objects and edge tuples eagerly — wasted work for
    consumers that only need the CTMC (built straight from the arrays) or a
    subset of the rows.  The lists are now lazy; this row measures the
    exploration with adoption deferred against the same exploration with
    both lists forced, which is exactly the cost the laziness removes.
    """
    from repro.stochastic import GSPNAnalysis

    label = "sliding window, 4 frames, lossy"
    constructor = lambda: sliding_window_net(4, loss_probability=Fraction(1, 10))

    lazy_time, lazy_result = best_timed(
        lambda: GSPNAnalysis(constructor(), engine="batched")._explore(),
        repetitions=3,
    )
    forced_time, forced_result = best_timed(
        lambda: (
            lambda markings, edges, vanishing: (list(markings), list(edges), vanishing)
        )(*GSPNAnalysis(constructor(), engine="batched")._explore()),
        repetitions=3,
    )
    states = len(lazy_result[0])
    assert states == len(forced_result[0])
    record_bench(label, "gspn/batched-lazy", states, lazy_time)
    record_bench(label, "gspn/batched-forced", states, forced_time)
    win = forced_time / lazy_time

    print()
    print(
        format_table(
            ("model (GSPN, batched)", "states", "lazy s", "forced s", "win"),
            [(label, states, f"{lazy_time:.3f}", f"{forced_time:.3f}", f"{win:.2f}x")],
            align_right=False,
        )
    )

    # The point of satellite work on the lazy adoption: skipping the
    # per-marking materialization must be a measurable win.
    problems = []
    if win < 1.1:
        problems.append(
            f"lazy columnar adoption shows no win on {label}: {win:.2f}x"
        )
    soft_or_fail(problems)


def test_coverability_engine_nodes_per_second():
    """Compiled vs. reference Karp–Miller throughput on the largest bundled case."""
    net = alternating_bit_net()
    reference_time, reference = best_timed(
        lambda: coverability_graph(net, engine="reference"), repetitions=3
    )
    compiled_time, compiled = best_timed(
        lambda: coverability_graph(net, engine="compiled"), repetitions=3
    )
    assert compiled.node_count == reference.node_count
    speedup = reference_time / compiled_time

    print()
    print(
        format_table(
            ("model (coverability)", "nodes", "reference nodes/s", "compiled nodes/s", "speedup"),
            [
                (
                    "alternating bit",
                    compiled.node_count,
                    f"{compiled.node_count / reference_time:,.0f}",
                    f"{compiled.node_count / compiled_time:,.0f}",
                    f"{speedup:.2f}x",
                )
            ],
            align_right=False,
        )
    )

    problems = []
    if speedup < 1.5:
        problems.append(f"coverability speedup regressed: {speedup:.2f}x < 1.5x")
    soft_or_fail(problems)


def test_warm_cache_reanalysis(tmp_path):
    """Warm (disk-cached) vs cold re-analysis of the standing window-4 model.

    The content-addressed artifact cache (:mod:`repro.analysis`) stores the
    timed reachability graph through the compact columnar codec and the GSPN
    solution as a pickle, keyed on the net's fingerprint.  The cold row is a
    first analysis into an empty cache directory (exploration + encode +
    store); the warm row is a fresh session on the populated directory —
    what a repeated CLI invocation or a process restart pays.  The warm
    result is bit-identical to the cold one (gated by
    ``tests/test_analysis_cache.py``); the acceptance floor here is the
    ISSUE's ">= 10x faster warm" on this workload.
    """
    import gc
    import time

    from repro.analysis import AnalysisSession

    label = "sliding window, 4 frames, lossy (timed, compressed delays)"
    net = timed_window_net()
    cache_dir = str(tmp_path / "artifacts")

    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with AnalysisSession(cache_dir=cache_dir) as session:
            cold_graph = session.timed_graph(net)
            cold_result = session.gspn_solution(net)
        cold_time = time.perf_counter() - start

        def reanalyze():
            with AnalysisSession(cache_dir=cache_dir) as session:
                graph = session.timed_graph(net)
                result = session.gspn_solution(net)
                stats = session.cache.stats()
            return graph, result, stats

        warm_time, (warm_graph, warm_result, warm_stats) = best_timed(reanalyze, repetitions=3)
    finally:
        gc.enable()

    assert warm_graph.state_count == cold_graph.state_count
    assert warm_graph.edge_count == cold_graph.edge_count
    assert warm_result.throughput == cold_result.throughput
    hits = warm_stats["memory_hits"] + warm_stats["disk_hits"]
    hit_rate = hits / (hits + warm_stats["misses"])
    assert hit_rate == 1.0
    speedup = cold_time / warm_time

    states = cold_graph.state_count
    record_bench(label, "analysis/cold+store", states, cold_time)
    record_bench(
        label,
        "analysis/warm-cache",
        states,
        warm_time,
        speedup=speedup,
        cache_hit_rate=hit_rate,
    )

    print()
    print(
        format_table(
            (
                "model (graph + GSPN throughput)",
                "states",
                "cold s",
                "warm s",
                "hit rate",
                "speedup",
            ),
            [
                (
                    label,
                    states,
                    f"{cold_time:.2f}",
                    f"{warm_time:.3f}",
                    f"{hit_rate:.0%}",
                    f"{speedup:.1f}x",
                )
            ],
            align_right=False,
        )
    )

    problems = []
    if speedup < 10.0:
        problems.append(
            f"warm-cache re-analysis below the 10x floor on {label}: {speedup:.1f}x"
        )
    soft_or_fail(problems)
