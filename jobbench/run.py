"""Service job-traffic benchmark of the timed-Petri-net analysis service.

Usage (from the root of a checkout)::

    python3 jobbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0

One run boots the HTTP service (``repro-tpn serve``) several times to time
set-up, keeps the last instance, drives it with a seeded closed-loop client
for ``--seconds``, then replays every completed job in-process through the
same pipeline with one span per layer call and checks that each service
result equals its replay.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics; the last line of standard output is
the JSON result.  A stamped result file goes to ``jobbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "jobbench" / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Layers of the traced replay, in pipeline order.
LAYERS = (
    "service.schemas.parse",
    "petri.fingerprint",
    "analysis.cache.fetch",
    "engine.tables.compile",
    "reachability.timed_build",
    "reachability.decision",
    "performance.metrics",
    "analysis.codec.encode",
    "engine.query.explore",
    "petri.untimed.build",
    "stochastic.gspn.solve",
    "service.render",
)
#: Layers whose spans carry a state count, reported as states per second.
STATE_LAYERS = ("reachability.timed_build", "engine.query.explore", "petri.untimed.build")


def require_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"jobbench: the program is missing ({package} not found)")
    sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload: str, work: Path):
    """Boot (and for warm traffic pre-warm) ``SETUPS`` servers; keep the last.

    Set-up time runs from process start until ``/healthz`` answers, plus the
    pre-warm.  Returns ``(server, seconds per set-up)``.
    """
    from generator import prewarm_jobs
    from service_client import Server, ServiceFailure, run_all

    times: List[float] = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            server.stop()
            shutil.rmtree(server.directory, ignore_errors=True)
        server = Server(ROOT, work / f"server-{attempt}")
        started = time.perf_counter()
        try:
            server.start()
            outcomes = run_all(server.port, prewarm_jobs(workload))
            failed = [outcome.error for outcome in outcomes if not outcome.ok]
            if failed:
                raise ServiceFailure(f"pre-warm failed: {failed[0]}")
        except BaseException:
            server.stop()
            raise
        times.append(time.perf_counter() - started)
    return server, times


def replay(
    jobs, workload: str, directory: Path, tracer, *, mirror: bool = True
) -> Tuple[List[Tuple[dict, str]], float]:
    """Replay pre-warm and ``jobs`` in a fresh context; returns results and seconds."""
    from generator import prewarm_jobs
    from replay import ReplayContext, replay_job, reset_process_caches
    from spans import NullTracer

    reset_process_caches()
    ctx = ReplayContext(str(directory), NullTracer(), mirror=mirror)
    try:
        for job in prewarm_jobs(workload):
            replay_job(ctx, f"setup-{-job.index}", job.body)
        ctx.tracer = tracer
        started = time.perf_counter()
        results = [replay_job(ctx, f"job-{job.index}", job.body) for job in jobs]
        return results, time.perf_counter() - started
    finally:
        ctx.close()
        shutil.rmtree(directory, ignore_errors=True)


def check(outcome, reference: Tuple[dict, str], expected_tier: str) -> Optional[str]:
    """Why ``outcome`` is wrong, or ``None``."""
    from replay import normalise
    from repro.protocols import PAPER_THROUGHPUT

    if not outcome.ok:
        return outcome.error
    template = outcome.job.template
    result = outcome.record["result"]
    tier = outcome.record["cache"]["tier"]
    if tier != expected_tier:
        return f"served from tier {tier!r}, expected {expected_tier!r}"
    if result.get(template.result_key) != template.states:
        return f"{template.result_key} = {result.get(template.result_key)}, expected {template.states}"
    if template.name.startswith("fig1.") and Fraction(result["throughput"]["t2"]["exact"]) != PAPER_THROUGHPUT:
        return f"Figure-1 throughput {result['throughput']['t2']['exact']} != paper {PAPER_THROUGHPUT}"
    expected, replay_tier = reference
    if replay_tier != expected_tier:
        return f"replay served from tier {replay_tier!r}, expected {expected_tier!r}"
    if normalise(expected) != normalise(result):
        return "result differs from the in-process replay"
    return None


def ms(values) -> List[float]:
    return [value * 1000.0 for value in values]


#: A reported metric: its value, its unit and the samples it summarises.
Metric = Tuple[float, str, List[float]]


def metric(value: float, unit: str, samples: Optional[List[float]] = None) -> Metric:
    return value, unit, samples if samples is not None else [value]


def layer_metrics(spans_, wall: float) -> Tuple[Dict[str, Metric], Dict[str, object]]:
    """Per-layer metrics of a traced replay, plus a printable digest."""
    from spans import OTHER, job_walls, layer_table
    from summary import median

    table = layer_table(spans_)
    walls = job_walls(spans_)
    total = sum(walls)
    metrics: Dict[str, Metric] = {}
    for layer in LAYERS:
        entry = table.get(layer, {"durations": [], "self": 0.0, "attrs": {}})
        durations = ms(entry["durations"])
        busy = sum(durations)
        metrics[f"{layer}.count"] = metric(float(len(durations)), "count")
        metrics[f"{layer}.busy_ms"] = metric(busy, "ms")
        metrics[f"{layer}.p50_ms"] = metric(median(durations), "ms", durations)
        metrics[f"{layer}.self_ms"] = metric(entry["self"] * 1000.0, "ms")
        if layer in STATE_LAYERS:
            states = entry["attrs"].get("states", 0.0)
            metrics[f"{layer}.states_per_s"] = metric(
                states / busy * 1000.0 if busy else 0.0, "states/s"
            )
    encode = table.get("analysis.codec.encode")
    metrics["analysis.codec.encode.bytes"] = metric(
        encode["attrs"].get("bytes", 0.0) / len(encode["durations"]) if encode else 0.0, "bytes"
    )
    other = table.get(OTHER, {"self": 0.0})["self"]
    share = 1.0 - other / total if total else 0.0
    metrics["other.self_ms"] = metric(other * 1000.0, "ms")
    metrics["trace.attributed_share"] = metric(share, "ratio")
    ranked = sorted(((name, row["self"]) for name, row in table.items()), key=lambda item: -item[1])
    digest = {
        "jobs": len(walls),
        "job_wall_s": total,
        "replay_wall_s": wall,
        "attributed_share": share,
        "top_self": [
            {"layer": name, "self_ms": own * 1000.0, "share": own / total if total else 0.0}
            for name, own in ranked[:3]
        ],
    }
    return metrics, digest


def measure(args: argparse.Namespace, work: Path) -> Dict[str, object]:
    from generator import CONNECTIONS, JobStream, is_cold
    from service_client import closed_loop
    from spans import NullTracer, Tracer
    import summary
    from summary import median

    workload = args.workload
    jobs_stream = JobStream(workload, args.seed)
    server, setups = set_up(workload, work)
    try:
        cpu_started = time.process_time()
        started = time.perf_counter()
        outcomes = closed_loop(
            server.port, jobs_stream, users=CONNECTIONS[workload], seconds=args.seconds
        )
        elapsed = time.perf_counter() - started
        client_cpu = time.process_time() - cpu_started
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
        shutil.rmtree(server.directory, ignore_errors=True)

    jobs = [outcome.job for outcome in outcomes]
    expected_tier = "built" if is_cold(workload) else "memory"

    # The reference: the in-process replay.  Traced runs replay every job
    # as the service runs it, with spans, then again without spans to
    # measure what tracing costs.  Untraced runs replay each distinct
    # content once (every cold job, one job per warm template) without the
    # disk tier and checkpoints, which do not change results.
    if args.trace:
        # One block first, so lazy imports and allocator growth do not
        # land on whichever replay runs first.
        replay(jobs[: block_size(workload)], workload, work / "replay-warmup", NullTracer())
        tracer = Tracer()
        traced, traced_wall = replay(jobs, workload, work / "replay-traced", tracer)
        _untraced, untraced_wall = replay(jobs, workload, work / "replay-untraced", NullTracer())
        references = dict(zip((job.index for job in jobs), traced))
    else:
        tracer = Tracer()
        distinct: Dict[Tuple[str, Fraction], object] = {}
        for job in jobs:
            distinct.setdefault((job.template.name, job.loss), job)
        replayed, traced_wall = replay(
            list(distinct.values()), workload, work / "replay-check", tracer, mirror=False
        )
        by_content = dict(zip(distinct, replayed))
        references = {job.index: by_content[(job.template.name, job.loss)] for job in jobs}

    mismatches = []
    for outcome in outcomes:
        reason = check(outcome, references[outcome.job.index], expected_tier)
        if reason is not None:
            mismatches.append({"job": outcome.job.index, "template": outcome.job.template.name, "reason": reason})
    failed = len(mismatches)
    attempted = len(outcomes)
    good = [outcome for outcome in outcomes if outcome.ok]

    latencies = ms(outcome.latency for outcome in good)
    submits = ms(outcome.submit for outcome in outcomes)
    polls = ms(poll for outcome in outcomes for poll in outcome.polls)
    tail_value, tail_percentile = summary.tail(latencies)
    records = [outcome.record for outcome in good]
    queue_waits = ms(record["started_at"] - record["submitted_at"] for record in records)
    run_times = ms(record["finished_at"] - record["started_at"] for record in records)
    overheads = ms(
        outcome.latency - (outcome.record["finished_at"] - outcome.record["submitted_at"])
        for outcome in good
    )
    tiers = Counter(record["cache"]["tier"] for record in records)
    hits = tiers["memory"] + tiers["disk"]

    end_to_end = {
        "job_p50_ms": metric(median(latencies), "ms", latencies),
        "job_tail_ms": metric(tail_value, "ms", latencies),
        "jobs_per_s": metric(len(good) / elapsed, "1/s"),
        "submit_p50_ms": metric(median(submits), "ms", submits),
        "status_p95_ms": metric(summary.percentile(polls, 95), "ms", polls),
        "server_rss_mb": metric(rss_mb, "MiB"),
        "setup_s": metric(median(setups), "s", setups),
    }
    per_layer = {
        "service.jobs.queue_wait_ms": metric(median(queue_waits), "ms", queue_waits),
        "service.jobs.queue_wait_p95_ms": metric(summary.percentile(queue_waits, 95), "ms", queue_waits),
        "service.jobs.run_ms": metric(median(run_times), "ms", run_times),
        "service.http_overhead_ms": metric(median(overheads), "ms", overheads),
        "analysis.cache.hit_ratio": metric(hits / len(records) if records else 0.0, "ratio"),
        "analysis.cache.tier_built": metric(float(tiers["built"]), "count"),
        "analysis.cache.tier_memory": metric(float(tiers["memory"]), "count"),
        "analysis.cache.tier_disk": metric(float(tiers["disk"]), "count"),
        "client.cpu_ms_per_job": metric(client_cpu * 1000.0 / max(attempted, 1), "ms"),
        "client.error_rate": metric(failed / attempted if attempted else 1.0, "ratio"),
    }
    layers, digest = layer_metrics(tracer.spans, traced_wall)
    per_layer.update(layers)
    if args.trace:
        overhead = 100.0 * (traced_wall - untraced_wall) / untraced_wall
        per_layer["trace.overhead_pct"] = metric(overhead, "%")
        digest["untraced_replay_wall_s"] = untraced_wall
        digest["overhead_pct"] = overhead
    rows = [
        summary.row(workload, name, unit, samples, value=value)
        for name, (value, unit, samples) in {**end_to_end, **per_layer}.items()
    ]

    stamp = summary.stamp(
        ROOT, workload=workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    stamp["samples"] = {row["metric"]: row["samples"] for row in rows}
    summary.write_result(
        OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json",
        stamp,
        rows,
        trace=digest,
        mismatches=mismatches,
        tail={"percentile": tail_percentile, "samples": len(latencies)},
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: (value, unit) for name, (value, unit, _) in (per_layer if args.trace else end_to_end).items()
        },
        "digest": digest,
        "tail": (tail_percentile, len(latencies)),
        "mismatches": mismatches,
    }


def block_size(workload: str) -> int:
    from generator import WORKLOADS

    return 2 * sum(template.weight for template in WORKLOADS[workload])


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    require_program()
    from generator import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"jobbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("jobbench: --seconds must be positive")
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        outcome = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = outcome["digest"]
    percentile, samples = outcome["tail"]
    print(f"workload {args.workload}: {outcome['attempted']} jobs, {outcome['failed']} failed; "
          f"job_tail_ms is p{percentile:.1f} of {samples} samples")
    if args.trace:
        print(f"traced replay: {digest['attributed_share']:.1%} of {digest['jobs']} jobs' wall time "
              f"in named spans; tracing overhead {digest['overhead_pct']:+.1f}%")
        for entry in digest["top_self"]:
            print(f"  self {entry['layer']:28s} {entry['self_ms']:10.1f} ms  {entry['share']:6.1%}")
    for mismatch in outcome["mismatches"][:5]:
        print(f"  mismatch: job {mismatch['job']} ({mismatch['template']}): {mismatch['reason']}")
    result = {
        "correct": outcome["failed"] == 0 and outcome["attempted"] > 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in outcome["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
