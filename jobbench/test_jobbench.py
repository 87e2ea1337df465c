"""Tests of the job-traffic benchmark's own machinery (no server needed).

Run with ``PYTHONPATH=src python -m pytest jobbench -q``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from generator import WORKLOADS, JobStream  # noqa: E402
from replay import ReplayContext, replay_job, reset_process_caches  # noqa: E402
from repro.petri.fingerprint import net_fingerprint  # noqa: E402
from repro.service.schemas import parse_job  # noqa: E402
from spans import ROOT, NullTracer, Span, Tracer, covered, layer_table, self_times  # noqa: E402
from summary import check_unique, percentile, reject_duplicate_keys, row, tail, write_result  # noqa: E402


def fingerprint(job) -> str:
    return net_fingerprint(parse_job(json.loads(job.body)).net)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_job_sequence(workload):
    first = [job.body for job in JobStream(workload, 7).take(20)]
    second = [job.body for job in JobStream(workload, 7).take(20)]
    assert first == second
    assert first != [job.body for job in JobStream(workload, 8).take(20)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_blocks_keep_the_mix_fixed(workload):
    templates = WORKLOADS[workload]
    size = 2 * sum(template.weight for template in templates)
    stream = JobStream(workload, 3)
    block = stream.take(size)
    assert stream.at_block_boundary()
    per_template = Counter(job.template.name for job in block)
    assert per_template == {template.name: 2 * template.weight for template in templates}
    assert sum(job.encoding == "pnml" for job in block) == size // 2
    assert sum(job.shuffled for job in block) == size // 2


def test_different_seeds_give_new_fingerprints_but_the_same_state_counts(tmp_path):
    jobs = {seed: JobStream("cold_timed", seed).take(6) for seed in (1, 2)}
    prints = {seed: [fingerprint(job) for job in batch] for seed, batch in jobs.items()}
    assert len(set(prints[1])) == len(set(prints[2])) == 6
    assert not set(prints[1]) & set(prints[2])

    reset_process_caches()
    context = ReplayContext(str(tmp_path), NullTracer())
    try:
        for seed, batch in jobs.items():
            for job in batch:
                result, tier = replay_job(context, f"{seed}-{job.index}", job.body)
                assert tier == "built"
                assert result[job.template.result_key] == job.template.states
    finally:
        context.close()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert tail(values) == (90.0, 90.0)
    assert tail([float(v) for v in range(1, 12)]) == (1.0, 100.0 / 11)
    assert tail([5.0, 1.0, 3.0]) == (3.0, 50.0)
    assert tail(values, beyond=1) == (99.0, 99.0)


def test_percentile_averages_the_ranks_around_it():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 95) == sum(range(93, 98)) / 5
    assert percentile(values, 95, width=0) == 95.0
    assert percentile([7.0], 95) == 7.0
    assert percentile([], 95) == 0.0


def test_self_time_subtracts_the_union_of_child_intervals():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]) == 6.0
    spans = [
        Span(ROOT, 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("c", 6.0, 8.0, parent=0),
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    table = layer_table(spans)
    assert table["other"]["self"] == 4.0
    assert table["a"]["durations"] == [4.0]


def test_tracer_records_parents_and_jobs():
    ticks = iter(float(t) for t in range(10))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span(ROOT, job_id="j1"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
    assert [(s.name, s.start, s.end, s.parent, s.job_id) for s in tracer.spans] == [
        (ROOT, 0.0, 5.0, None, "j1"),
        ("a", 1.0, 4.0, 0, "j1"),
        ("b", 2.0, 3.0, 1, "j1"),
    ]


def test_result_rows_have_no_duplicate_keys(tmp_path):
    rows = [row("w", "job_p50_ms", "ms", [1.0, 2.0, 3.0]), row("w", "setup_s", "s", [0.5])]
    path = tmp_path / "result.json"
    write_result(path, {"seed": 1}, rows)
    loaded = json.loads(path.read_text(), object_pairs_hook=reject_duplicate_keys)
    assert [(r["workload"], r["metric"]) for r in loaded["rows"]] == [
        ("w", "job_p50_ms"),
        ("w", "setup_s"),
    ]
    assert loaded["rows"][0]["median"] == 2.0
    with pytest.raises(ValueError, match="duplicate"):
        check_unique(rows + [row("w", "setup_s", "s", [0.6])])
    with pytest.raises(ValueError, match="duplicate"):
        json.loads('{"a": 1, "a": 2}', object_pairs_hook=reject_duplicate_keys)
