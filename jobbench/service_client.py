"""The analysis service as a subprocess, and the closed-loop job client.

Each run starts ``repro-tpn serve --port 0 --cache-dir <tmp>`` afresh
(``python3 -m repro serve`` from the checkout's ``src``).  The client is
one process with one thread and one keep-alive connection per concurrent
user; each user submits a job, polls it until it finishes, and only then
submits the next (a closed loop).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from generator import Job, JobStream

#: Pause between two status polls of one job.
POLL_INTERVAL = 0.005
#: Longest a single job may take before the run gives up on it.
JOB_TIMEOUT = 120.0
BOOT_TIMEOUT = 60.0

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class ServiceFailure(RuntimeError):
    """The service could not be started or stopped cleanly."""


class Server:
    """One ``repro-tpn serve`` subprocess with its own cache directory."""

    def __init__(self, root: Path, directory: Path):
        self.root = root
        self.directory = directory
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> "Server":
        self.directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.directory)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        log = open(self.directory / "server.log", "wb")
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve",
                    "--port",
                    "0",
                    "--cache-dir",
                    str(self.directory / "cache"),
                ],
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        finally:
            log.close()
        line = self._first_line()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise ServiceFailure(f"the service did not announce its port: {line!r}")
        self.port = int(match.group(2))
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=BOOT_TIMEOUT)
        try:
            status, _ = request(connection, "GET", "/healthz")
        finally:
            connection.close()
        if status != 200:
            self.stop()
            raise ServiceFailure(f"/healthz answered {status}")
        return self

    def _first_line(self) -> str:
        box: List[bytes] = []
        reader = threading.Thread(target=lambda: box.append(self.process.stdout.readline()))
        reader.start()
        reader.join(BOOT_TIMEOUT)
        if reader.is_alive() or not box:
            self.stop()
            reader.join(5)
            raise ServiceFailure("the service did not start within the boot timeout")
        return box[0].decode("utf-8", "replace")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise ServiceFailure("VmHWM is not reported for the server process")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(15)
        if process.stdout is not None:
            process.stdout.close()
        self.process = None


def request(connection: http.client.HTTPConnection, method: str, path: str, body: bytes = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    payload = response.read()
    return response.status, (json.loads(payload) if payload else None)


@dataclass
class Outcome:
    """One job as the client saw it."""

    job: Job
    ok: bool
    latency: float = 0.0
    submit: float = 0.0
    polls: List[float] = field(default_factory=list)
    record: Optional[Dict[str, object]] = None
    error: Optional[str] = None


def run_job(connection: http.client.HTTPConnection, job: Job) -> Outcome:
    """Submit ``job`` and poll it to a terminal state."""
    started = time.perf_counter()
    status, record = request(connection, "POST", "/jobs", job.body)
    submitted = time.perf_counter()
    outcome = Outcome(job, ok=False, submit=submitted - started)
    if status != 202:
        outcome.error = f"submit answered {status}: {record}"
        outcome.latency = submitted - started
        return outcome
    path = f"/jobs/{record['id']}"
    while record["status"] in ("queued", "running"):
        if time.perf_counter() - started > JOB_TIMEOUT:
            outcome.error = f"job {record['id']} did not finish within {JOB_TIMEOUT}s"
            break
        time.sleep(POLL_INTERVAL)
        poll_started = time.perf_counter()
        status, record = request(connection, "GET", path)
        outcome.polls.append(time.perf_counter() - poll_started)
        if status != 200:
            outcome.error = f"status poll answered {status}: {record}"
            break
    outcome.latency = time.perf_counter() - started
    outcome.record = record
    if outcome.error is None and record["status"] != "done":
        outcome.error = f"job ended {record['status']}: {record.get('error')}"
    outcome.ok = outcome.error is None
    return outcome


def run_all(port: int, jobs: List[Job]) -> List[Outcome]:
    """Run ``jobs`` one after another on one connection (set-up traffic)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
    try:
        return [run_job(connection, job) for job in jobs]
    finally:
        connection.close()


def closed_loop(port: int, jobs: JobStream, *, users: int, seconds: float) -> List[Outcome]:
    """``users`` closed-loop clients drawing from one job sequence.

    Users stop submitting once ``seconds`` have passed and the sequence is
    at a block boundary, so every run measures whole blocks — the same job
    mix whatever the seed.  Outcomes are returned in job order.
    """
    lock = threading.Lock()
    outcomes: List[Outcome] = []
    failures: List[BaseException] = []
    deadline = time.perf_counter() + seconds

    def user() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT)
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline and jobs.at_block_boundary():
                        break
                    job = next(jobs)
                outcome = run_job(connection, job)
                with lock:
                    outcomes.append(outcome)
        except BaseException as error:  # noqa: BLE001 - reported by the caller
            failures.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=user, name=f"jobbench-user-{n}") for n in range(users)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + JOB_TIMEOUT + 10)
    if failures:
        raise ServiceFailure(f"a client thread failed: {failures[0]!r}") from failures[0]
    if any(thread.is_alive() for thread in threads):
        raise ServiceFailure("a client thread did not finish")
    return sorted(outcomes, key=lambda outcome: outcome.job.index)
