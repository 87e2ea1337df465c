"""Shared fixtures and reporting helpers for the benchmark harness.

Every ``bench_*.py`` file regenerates one of the paper's figures (or one of
the reproduction's own validation/ablation experiments, see DESIGN.md's
experiment index) and both *asserts* the reproduced values and *prints* a
paper-vs-measured table.  Run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables; the printed blocks are the source of EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import platform
import time
import warnings
from pathlib import Path

import pytest

from repro.performance import PerformanceAnalysis
from repro.protocols import simple_protocol_net, simple_protocol_symbolic
from repro.viz import ExperimentReport


@pytest.fixture(scope="session")
def paper_net():
    """The numeric Figure-1 protocol."""
    return simple_protocol_net()


@pytest.fixture(scope="session")
def paper_analysis(paper_net):
    """Numeric end-to-end analysis (built once for the whole benchmark run)."""
    return PerformanceAnalysis(paper_net)


@pytest.fixture(scope="session")
def symbolic_protocol():
    """Symbolic net + Section-4 constraints + symbols."""
    return simple_protocol_symbolic()


@pytest.fixture(scope="session")
def symbolic_analysis(symbolic_protocol):
    """Symbolic end-to-end analysis (built once for the whole benchmark run)."""
    net, constraints, _symbols = symbolic_protocol
    return PerformanceAnalysis(net, constraints)


def emit(report: ExperimentReport) -> None:
    """Print an experiment report block and fail loudly if any row mismatches."""
    print()
    print(report.to_text())
    assert report.all_match, f"{report.experiment_id}: some reproduced values do not match the paper"


def best_timed(build, repetitions: int = 5):
    """Best-of-N wall-clock of a zero-argument construction.

    Returns ``(seconds, result)`` where ``result`` is the last build's
    return value (the constructions are deterministic, so every repetition
    produces the same graph).
    """
    best = None
    result = None
    for _ in range(repetitions):
        start = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


#: Machine-readable benchmark rows collected by :func:`record_bench` during
#: the run and written as JSON at session end when ``REPRO_BENCH_JSON`` names
#: an output path.  CI uploads the file as an artifact so the states/second
#: trajectory of every engine is tracked across PRs.
_BENCH_RECORDS: list = []

#: Measurements taken through :func:`measure_once`, by ``(workload, engine)``.
_MEASURED: dict = {}


def record_bench(workload: str, engine: str, states: int, seconds: float, **extra) -> None:
    """Collect one engine-throughput measurement for the JSON report.

    ``seconds`` is the best-of-N wall-clock the printed tables report, so the
    JSON numbers match the human-readable output exactly.  ``extra`` keyword
    fields (e.g. the warm-cache rows' ``speedup`` and ``cache_hit_rate``) are
    merged into the record verbatim.  Each ``(workload, engine)`` pair may be
    recorded once per session: a second row for the same pair would make the
    report ambiguous, so it raises ``ValueError``.
    """
    if any(
        record["workload"] == workload and record["engine"] == engine
        for record in _BENCH_RECORDS
    ):
        raise ValueError(f"duplicate benchmark row ({workload!r}, {engine!r})")
    record = {
        "workload": workload,
        "engine": engine,
        "states": states,
        "seconds": seconds,
        "states_per_second": (states / seconds) if seconds else None,
    }
    record.update(extra)
    _BENCH_RECORDS.append(record)


def measure_once(workload: str, engine: str, build, repetitions: int = 5):
    """Best-of-N ``build()`` for one ``(workload, engine)`` row, recorded once.

    A baseline several comparisons share (e.g. the scalar compiled untimed
    build) is timed and recorded on first use; later calls return that same
    ``(seconds, graph)`` pair, so every table and the JSON report agree.
    ``build`` must return a graph with a ``state_count``.
    """
    key = (workload, engine)
    if key not in _MEASURED:
        seconds, graph = best_timed(build, repetitions=repetitions)
        record_bench(workload, engine, graph.state_count, seconds)
        _MEASURED[key] = (seconds, graph)
    return _MEASURED[key]


def pytest_sessionfinish(session, exitstatus):
    """Write the collected benchmark rows when REPRO_BENCH_JSON is set."""
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path or not _BENCH_RECORDS:
        return
    payload = {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "soft_mode": bool(os.environ.get("REPRO_BENCH_SOFT")),
        "records": _BENCH_RECORDS,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def soft_or_fail(problems) -> None:
    """Fail on engine speedup regressions, or warn when REPRO_BENCH_SOFT is set.

    Wall-clock ratios are noisy on shared CI runners, so with
    ``REPRO_BENCH_SOFT`` set a miss only warns instead of failing the run.
    """
    if not problems:
        return
    if os.environ.get("REPRO_BENCH_SOFT"):
        for problem in problems:
            warnings.warn(problem)
    else:
        raise AssertionError("; ".join(problems))
