"""End-to-end tests of the analysis service (HTTP/JSON job API).

The contract under test: a net submitted over HTTP is analyzed through
the same content-addressed pipeline as a direct
:class:`~repro.analysis.AnalysisSession` — identical nets (including
reordered declarations of the same content) are answered from the cache
without re-running a builder, the serving tier is reported per job,
cancellation stops a running build at a frontier boundary leaving a
resumable checkpoint, and a warm hit is **bit-identical** to a cold build
by the assertions of the engine differential gate (:mod:`engine_diff`).
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from fractions import Fraction

import pytest

from engine_diff import assert_untimed_graphs_identical
from repro.analysis import AnalysisSession
from repro.engine.runtime import Checkpoint
from repro.petri.fingerprint import net_cache_key, net_fingerprint
from repro.petri.io import jsonio
from repro.petri.untimed import reachability_graph
from repro.protocols import simple_protocol_net, sliding_window_net
from repro.service import JobManager, make_server
from repro.service.schemas import (
    MAX_BATCH,
    ServiceError,
    parse_batch,
    parse_job,
)

TERMINAL = ("done", "error", "cancelled", "interrupted")


def window_net(size: int = 2):
    return sliding_window_net(size, loss_probability=Fraction(1, 20))


def net_payload(net) -> dict:
    return jsonio.net_to_dict(net)


class Client:
    """A tiny urllib JSON client against one in-process server."""

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def request(self, method: str, path: str, payload=None):
        data = json.dumps(payload).encode("utf-8") if payload is not None else None
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def submit(self, net, stage, params=None, **extra):
        body = {"net": net_payload(net), "stage": stage, "params": params or {}}
        body.update(extra)
        status, record = self.request("POST", "/jobs", body)
        assert status == 202, record
        return record

    def wait(self, job_id: str, timeout: float = 60.0, states=TERMINAL):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, record = self.request("GET", f"/jobs/{job_id}")
            assert status == 200, record
            if record["status"] in states:
                return record
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not reach {states} in {timeout}s")

    def run(self, net, stage, params=None, **extra):
        record = self.wait(self.submit(net, stage, params, **extra)["id"])
        assert record["status"] == "done", record
        return record


@pytest.fixture
def service(tmp_path):
    server = make_server(
        "127.0.0.1",
        0,
        cache_dir=str(tmp_path / "cache"),
        workers=2,
        checkpoint_every=200,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, Client(server)
    finally:
        server.close()
        thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Every stage, submit/poll/result
# ---------------------------------------------------------------------------


class TestStages:
    def test_tables(self, service):
        _, client = service
        record = client.run(window_net(2), "tables")
        assert record["result"]["places"] > 0
        assert record["result"]["transitions"] > 0
        assert record["cache"]["tier"] == "built"

    def test_untimed(self, service):
        _, client = service
        net = window_net(2)
        record = client.run(net, "untimed")
        graph = reachability_graph(net)
        assert record["result"]["states"] == graph.state_count
        assert record["result"]["edges"] == graph.edge_count
        assert record["result"]["bound"] == graph.bound()

    def test_coverability(self, service):
        _, client = service
        record = client.run(window_net(2), "coverability")
        assert record["result"]["bounded"] is True
        assert record["result"]["nodes"] > 0

    def test_gspn(self, service):
        _, client = service
        record = client.run(window_net(2), "gspn")
        assert record["result"]["tangible_states"] > 0
        assert all(value >= 0 for value in record["result"]["throughput"].values())

    def test_decision_and_performance(self, service):
        _, client = service
        net = simple_protocol_net()
        decision = client.run(net, "decision")
        assert decision["result"]["anchors"] > 0
        performance = client.run(net, "performance")
        assert performance["result"]["cycle_time"]["value"] > 0
        assert "t2" in performance["result"]["throughput"]

    def test_query_kinds(self, service):
        _, client = service
        net = window_net(2)
        deadlock = client.run(net, "query", {"kind": "deadlock"})
        assert deadlock["result"]["found"] is False
        bound = client.run(net, "query", {"kind": "bound", "place": "sender_ready", "k": 1})
        assert bound["result"]["found"] is False  # 1-safe shared sender token
        reachable = client.run(
            net,
            "query",
            {"kind": "reachable", "target": dict(net.initial_marking.to_dict())},
        )
        assert reachable["result"]["found"] is True
        assert reachable["result"]["path"] == []

    def test_batch_submission(self, service):
        _, client = service
        net = net_payload(window_net(2))
        status, body = client.request(
            "POST",
            "/jobs/batch",
            {
                "jobs": [
                    {"net": net, "stage": "untimed"},
                    {"net": net, "stage": "coverability"},
                    {"net": net, "stage": "query", "params": {"kind": "deadlock"}},
                ]
            },
        )
        assert status == 202
        records = [client.wait(entry["id"]) for entry in body["jobs"]]
        assert [record["status"] for record in records] == ["done"] * 3

    def test_batch_is_all_or_nothing(self, service):
        _, client = service
        net = net_payload(window_net(2))
        before = client.request("GET", "/jobs")[1]["jobs"]
        status, body = client.request(
            "POST",
            "/jobs/batch",
            {"jobs": [{"net": net, "stage": "untimed"}, {"net": net, "stage": "nope"}]},
        )
        assert status == 400
        assert body["error"]["code"] == "unknown-stage"
        assert "jobs[1]" in body["error"]["message"]
        after = client.request("GET", "/jobs")[1]["jobs"]
        assert len(after) == len(before)


# ---------------------------------------------------------------------------
# Cache behavior over HTTP
# ---------------------------------------------------------------------------


class TestCaching:
    def test_identical_resubmission_served_from_memory(self, service):
        _, client = service
        net = window_net(2)
        first = client.run(net, "untimed")
        second = client.run(net, "untimed")
        assert first["cache"]["tier"] == "built"
        assert second["cache"]["tier"] == "memory"
        assert second["cache"]["key"] == first["cache"]["key"]

    def test_concurrent_identical_submissions_build_once(self, service):
        _, client = service
        net = window_net(3)
        a = client.submit(net, "untimed")
        b = client.submit(net, "untimed")
        records = [client.wait(a["id"]), client.wait(b["id"])]
        assert [record["status"] for record in records] == ["done", "done"]
        assert sorted(record["cache"]["tier"] for record in records) == [
            "built",
            "memory",
        ]
        stats = client.request("GET", "/cache/stats")[1]
        assert stats["cache"]["disk_stages"].get("untimed-graph") == 1

    def test_reordered_declarations_served_without_rebuild(self, service):
        _, client = service
        payload = net_payload(window_net(2))
        reordered = dict(payload)
        reordered["places"] = list(reversed(payload["places"]))
        reordered["transitions"] = list(reversed(payload["transitions"]))
        original_net = jsonio.net_from_dict(payload)
        reordered_net = jsonio.net_from_dict(reordered)
        assert net_fingerprint(original_net) == net_fingerprint(reordered_net)
        assert net_cache_key(original_net) != net_cache_key(reordered_net)

        first = client.wait(
            client.request("POST", "/jobs", {"net": payload, "stage": "untimed"})[1]["id"]
        )
        second = client.wait(
            client.request("POST", "/jobs", {"net": reordered, "stage": "untimed"})[1][
                "id"
            ]
        )
        assert first["status"] == second["status"] == "done"
        assert first["cache"]["tier"] == "built"
        # Same content, own presentation key: answered from the cache under
        # the elected presentation, no second build.
        assert second["cache"]["tier"] == "memory"
        assert second["net"]["canonicalized"] is True
        assert second["net"]["cache_key"] != second["net"]["served_key"]
        assert second["net"]["served_key"] == first["net"]["served_key"]
        stats = client.request("GET", "/cache/stats")[1]
        assert stats["cache"]["disk_stages"].get("untimed-graph") == 1

    def test_warm_hit_is_bit_identical_to_direct_session(self, service):
        server, client = service
        net = window_net(3)
        record = client.run(net, "untimed")
        cold = reachability_graph(net)
        assert record["result"]["states"] == cold.state_count
        # A direct session over the same shared cache must hit, and the
        # served artifact must be exactly the cold build.
        session = AnalysisSession(cache=server.manager.cache)
        warm = session.untimed_graph(net)
        assert session.stage_outcomes["untimed-graph"] in (
            {"memory": 1},
            {"disk": 1},
        )
        assert_untimed_graphs_identical(warm, cold)


# ---------------------------------------------------------------------------
# Cancellation / deadline / resume
# ---------------------------------------------------------------------------


class TestRunControl:
    def _submit_slow(self, client, **extra):
        # ~15k states: a couple of seconds of build, plenty of frontier
        # boundaries to cancel at.
        return client.submit(
            window_net(6),
            "untimed",
            checkpoint_every=200,
            progress_every=50,
            **extra,
        )

    def test_cancel_mid_build_leaves_resumable_checkpoint(self, service):
        server, client = service
        job = self._submit_slow(client)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            record = client.request("GET", f"/jobs/{job['id']}")[1]
            if record["progress"] and record["progress"]["expanded"] > 0:
                break
            time.sleep(0.01)
        else:
            raise AssertionError("job never reported progress")

        status, record = client.request("DELETE", f"/jobs/{job['id']}")
        assert status == 200
        record = client.wait(job["id"])
        assert record["status"] == "cancelled"
        assert record["interrupt"]["resumable"] is True
        checkpoint_dir = record["interrupt"]["checkpoint"]
        assert checkpoint_dir and os.path.isdir(checkpoint_dir)
        checkpoint = Checkpoint.load(checkpoint_dir)
        assert checkpoint.cursor > 0

        status, record = client.request("POST", f"/jobs/{job['id']}/resume")
        assert status == 202
        record = client.wait(job["id"])
        assert record["status"] == "done", record
        cold = reachability_graph(window_net(6))
        assert record["result"]["states"] == cold.state_count
        assert record["result"]["edges"] == cold.edge_count
        # The resumed artifact landed in the shared cache bit-identically.
        session = AnalysisSession(cache=server.manager.cache)
        warm = session.untimed_graph(window_net(6))
        assert_untimed_graphs_identical(warm, cold)

    def test_deadline_interrupts_with_resumable_checkpoint(self, service):
        _, client = service
        job = self._submit_slow(client, deadline=0.3)
        record = client.wait(job["id"])
        assert record["status"] == "interrupted"
        assert record["interrupt"]["reason"] == "deadline"
        assert record["interrupt"]["resumable"] is True
        assert Checkpoint.load(record["interrupt"]["checkpoint"]).reason == "deadline"

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            # Pin the single worker on a slow job, then cancel a queued one.
            slow = manager.submit(parse_job({"net": net_payload(window_net(6)), "stage": "untimed"}))
            queued = manager.submit(
                parse_job({"net": net_payload(window_net(2)), "stage": "untimed"})
            )
            cancelled = manager.cancel(queued.id)
            assert cancelled.status == "cancelled"
            record = manager.describe(cancelled)
            assert record["interrupt"]["resumable"] is False
            manager.cancel(slow.id)
        finally:
            manager.shutdown()

    def test_resume_rejected_for_completed_job(self, service):
        _, client = service
        record = client.run(window_net(2), "untimed")
        status, body = client.request("POST", f"/jobs/{record['id']}/resume")
        assert status == 409
        assert body["error"]["code"] == "not-resumable"


# ---------------------------------------------------------------------------
# Errors and observability
# ---------------------------------------------------------------------------


class TestErrorsAndHealth:
    def test_unknown_stage(self, service):
        _, client = service
        status, body = client.request(
            "POST", "/jobs", {"net": net_payload(window_net(2)), "stage": "frobnicate"}
        )
        assert status == 400
        assert body["error"]["code"] == "unknown-stage"
        assert "untimed" in body["error"]["detail"]["stages"]

    def test_malformed_net(self, service):
        _, client = service
        status, body = client.request(
            "POST", "/jobs", {"net": {"places": "nonsense"}, "stage": "untimed"}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-net"
        status, body = client.request("POST", "/jobs", {"stage": "untimed"})
        assert status == 400
        assert body["error"]["code"] == "invalid-net"

    def test_invalid_params(self, service):
        _, client = service
        net = net_payload(window_net(2))
        status, body = client.request(
            "POST", "/jobs", {"net": net, "stage": "untimed", "params": {"max_state": 5}}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-params"
        status, body = client.request(
            "POST",
            "/jobs",
            {"net": net, "stage": "untimed", "params": {"engine": "parallel"}},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid-params"
        assert "engine must be one of compiled, batched" in body["error"]["message"]
        status, body = client.request(
            "POST", "/jobs", {"net": net, "stage": "query", "params": {"kind": "bound"}}
        )
        assert status == 400

    def test_invalid_json_body(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base + "/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_unknown_job_and_route(self, service):
        _, client = service
        status, body = client.request("GET", "/jobs/j-missing")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"
        status, body = client.request("GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "unknown-route"

    def test_unbounded_net_reported_as_job_error(self, service):
        _, client = service
        record = client.submit(
            simple_protocol_net(), "untimed", params={"max_states": 50}
        )
        record = client.wait(record["id"])
        assert record["status"] == "error"
        assert record["error"]["type"] == "UnboundedNetError"

    def test_healthz(self, service):
        _, client = service
        status, body = client.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0
        assert isinstance(body["jobs"], dict)
        assert body["workers"] == [
            {"id": 0, "current_job": None},
            {"id": 1, "current_job": None},
        ]

    def test_unexpected_stage_error_keeps_the_pool_serving(self, tmp_path, monkeypatch):
        # An exception outside the expected job errors is recorded as the
        # job's error, and the single pool thread goes on to the next job.
        def broken_stage(*_args, **_kwargs):
            raise RuntimeError("stage exploded")

        monkeypatch.setattr(AnalysisSession, "untimed_graph", broken_stage)
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=1)
        try:
            failed = manager.submit(
                parse_job({"net": net_payload(window_net(2)), "stage": "untimed"})
            )
            following = manager.submit(
                parse_job({"net": net_payload(window_net(2)), "stage": "tables"})
            )
            deadline = time.monotonic() + 30
            while following.status not in TERMINAL and time.monotonic() < deadline:
                time.sleep(0.02)
            record = manager.describe(failed)
            assert record["status"] == "error"
            assert record["error"] == {"type": "RuntimeError", "message": "stage exploded"}
            assert manager.describe(following)["status"] == "done"
        finally:
            manager.shutdown()

    def test_render_runs_outside_the_manager_lock(self, service, monkeypatch):
        # While one job's result summary renders, polls and health checks
        # must not queue behind it.
        from repro.service import jobs as jobs_module

        server, client = service
        slow = threading.Event()
        rendering = threading.Event()
        render = jobs_module.describe_artifact

        def slow_render(stage, artifact, net):
            if slow.is_set():
                rendering.set()
                time.sleep(0.5)
            return render(stage, artifact, net)

        monkeypatch.setattr(jobs_module, "describe_artifact", slow_render)
        manager = server.manager
        other = client.run(window_net(2), "tables")["id"]
        slow.set()
        rendered = client.submit(window_net(3), "tables")["id"]
        assert rendering.wait(30)
        started = time.monotonic()
        manager.describe(manager.get(other))
        assert time.monotonic() - started < 0.1
        started = time.monotonic()
        manager.health()
        assert time.monotonic() - started < 0.1
        started = time.monotonic()
        assert client.request("GET", f"/jobs/{other}")[0] == 200
        assert time.monotonic() - started < 0.1
        started = time.monotonic()
        assert client.request("GET", "/healthz")[0] == 200
        assert time.monotonic() - started < 0.1
        assert client.wait(rendered)["status"] == "done"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_size_changes_no_result(self, tmp_path, workers):
        # A mixed batch, one job failing, ends the same at every pool size,
        # with every pool thread idle afterwards.
        net = window_net(2)
        graph = reachability_graph(net)
        stages = [("untimed", {}), ("coverability", {}), ("query", {"kind": "deadlock"})]
        stages.append(("untimed", {"max_states": 5}))
        manager = JobManager(cache_dir=str(tmp_path / "cache"), workers=workers)
        try:
            jobs = manager.submit_batch(
                [
                    parse_job({"net": net_payload(net), "stage": stage, "params": params})
                    for stage, params in stages
                ]
            )
            idle = [{"id": slot, "current_job": None} for slot in range(workers)]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and (
                any(job.status not in TERMINAL for job in jobs)
                or manager.health()["workers"] != idle
            ):
                time.sleep(0.02)
            untimed, coverability, query, capped = (manager.describe(job) for job in jobs)
            assert (untimed["result"]["states"], untimed["result"]["edges"]) == (
                graph.state_count,
                graph.edge_count,
            )
            assert coverability["result"]["nodes"] == graph.state_count
            assert query["result"]["found"] is False
            assert capped["error"]["type"] == "UnboundedNetError"
            health = manager.health()
            assert (health["jobs"], health["workers"]) == ({"done": 3, "error": 1}, idle)
        finally:
            manager.shutdown()

    def test_cache_stats_shape(self, service):
        _, client = service
        client.run(window_net(2), "untimed")
        status, body = client.request("GET", "/cache/stats")
        assert status == 200
        assert body["cache"]["stores"] >= 1
        assert body["canonical_nets"] == 1
        # The single-flight entry is released an instant after the job
        # record turns terminal; poll briefly instead of racing it.
        deadline = time.monotonic() + 5
        while body["inflight_builds"] != 0 and time.monotonic() < deadline:
            time.sleep(0.02)
            body = client.request("GET", "/cache/stats")[1]
        assert body["inflight_builds"] == 0


# ---------------------------------------------------------------------------
# Schema validation (no server)
# ---------------------------------------------------------------------------


class TestSchemas:
    def test_parse_job_roundtrip(self):
        request = parse_job(
            {
                "net": net_payload(window_net(2)),
                "stage": "untimed",
                "params": {"max_states": 500},
                "deadline": 2.5,
            }
        )
        assert request.stage == "untimed"
        assert request.params == {"max_states": 500}
        assert request.deadline == 2.5

    def test_parse_job_rejects_bad_deadline(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_job(
                {"net": net_payload(window_net(2)), "stage": "untimed", "deadline": -1}
            )
        assert excinfo.value.status == 400

    def test_parse_batch_limits(self):
        entry = {"net": net_payload(window_net(2)), "stage": "tables"}
        with pytest.raises(ServiceError) as excinfo:
            parse_batch({"jobs": [entry] * (MAX_BATCH + 1)})
        assert excinfo.value.code == "batch-too-large"
        with pytest.raises(ServiceError):
            parse_batch({"jobs": []})

    def test_parse_net_pnml(self):
        from repro.petri.io import pnml

        net = window_net(2)
        request = parse_job({"pnml": pnml.net_to_pnml(net), "stage": "tables"})
        assert net_fingerprint(request.net) == net_fingerprint(net)


# ---------------------------------------------------------------------------
# CLI smoke: the CI service step (subprocess, real socket)
# ---------------------------------------------------------------------------


@pytest.mark.timeout(120)
def test_cli_serve_smoke(tmp_path):
    """Start ``repro-tpn serve`` on an ephemeral port, submit the same net
    twice, assert the second response is served from the cache, and check a
    clean SIGINT shutdown — the CI smoke step runs exactly this test."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         environment.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--jobs",
            "2",
        ],
        env=environment,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"unexpected startup line: {line!r}"
        base = f"http://{match.group(1)}:{match.group(2)}"

        def call(method, path, payload=None):
            data = json.dumps(payload).encode() if payload is not None else None
            request = urllib.request.Request(
                base + path, data=data, method=method,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())

        payload = {"net": net_payload(window_net(4)), "stage": "untimed"}
        tiers = []
        for _ in range(2):
            record = call("POST", "/jobs", payload)
            deadline = time.monotonic() + 60
            while record["status"] not in TERMINAL and time.monotonic() < deadline:
                time.sleep(0.05)
                record = call("GET", f"/jobs/{record['id']}")
            assert record["status"] == "done", record
            tiers.append(record["cache"]["tier"])
        assert tiers[0] == "built"
        assert tiers[1] == "memory"
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
    assert process.returncode == 0
