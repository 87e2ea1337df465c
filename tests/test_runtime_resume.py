"""Interrupt/resume determinism gate: checkpointed builds vs cold builds.

Every store-capable builder (compiled untimed reachability, Karp–Miller
coverability, the GSPN marking graph, the batched kernels, the query layer)
is interrupted at several points on every bundled workload — by a
deterministic deadline (:class:`~repro.engine.faults.SteppingClock`) and by
an injected hard crash between periodic checkpoints — resumed from the
checkpoint directory, and held to **exact graph equality** against a cold
uninterrupted build through the assertions of :mod:`engine_diff`.  A seeded
randomized crash-point sweep backs the fixed points.

The durable-store failure semantics ride along: reopen integrity probes
must name the corrupt shard, transient SQLite lock errors must be absorbed
by bounded retry (engine store and the artifact cache's disk tier alike),
and non-transient write failures must surface as typed ``StoreError``.

CI runs this module in the fault-injection step.
"""

from __future__ import annotations

import os
import pickle
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from engine_diff import (
    NUMERIC_WORKLOADS,
    UNBOUNDED_UNTIMED,
    WORKLOAD_IDS,
    assert_coverability_graphs_identical,
    assert_gspn_explorations_identical,
    assert_untimed_graphs_identical,
    crash_and_resume,
    interrupt_and_resume,
)
from repro.engine import faults
from repro.engine.faults import FaultPlan, SteppingClock
from repro.engine.query import bound_check, find_deadlock, is_reachable, search
from repro.engine.runtime import (
    MANIFEST_NAME,
    CancellationToken,
    Checkpoint,
    RunControl,
    resume,
    write_manifest,
)
from repro.exceptions import (
    BuildInterruptedError,
    StoreCorruptionError,
    StoreError,
)
from repro.petri import coverability_graph, reachability_graph
from repro.stochastic import GSPNAnalysis

BOUNDED_WORKLOADS = [
    (label, constructor)
    for label, constructor in NUMERIC_WORKLOADS
    if label not in UNBOUNDED_UNTIMED
]
BOUNDED_IDS = [label for label, _constructor in BOUNDED_WORKLOADS]

#: Deterministic deadline budgets (clock readings before expiry).  Small
#: budgets interrupt within the first BFS levels; the larger one lands the
#: interruption mid-build on every bundled workload.
EXPIRE_POINTS = (2, 6)


def _explored_gspn(net, *, control=None, **options):
    """A GSPN analysis whose marking graph has been explored."""
    analysis = GSPNAnalysis(net, control=control, **options)
    analysis._explore()
    return analysis


def _assert_same_query_answer(resumed, cold):
    assert (resumed.found, resumed.states_explored, resumed.path) == (
        cold.found,
        cold.states_explored,
        cold.path,
    )


#: Every resumable kind besides compiled untimed reachability (which
#: ``TestCrashResume`` sweeps on every workload): the build as a function
#: of ``(net, control)`` and the exact comparison of resumed vs cold.
CRASH_KINDS = {
    "coverability": (
        lambda net, control: coverability_graph(net, engine="compiled", control=control),
        assert_coverability_graphs_identical,
    ),
    "batched-untimed": (
        lambda net, control: reachability_graph(net, engine="batched", control=control),
        assert_untimed_graphs_identical,
    ),
    "gspn": (
        lambda net, control: _explored_gspn(net, engine="compiled", control=control),
        assert_gspn_explorations_identical,
    ),
    "batched-gspn": (
        lambda net, control: _explored_gspn(net, engine="batched", control=control),
        assert_gspn_explorations_identical,
    ),
    "query": (
        lambda net, control: find_deadlock(net, control=control),
        _assert_same_query_answer,
    ),
}


def test_deadline_interrupt_without_checkpoint_dir_is_not_resumable():
    net = dict(NUMERIC_WORKLOADS)["token-ring"]()
    control = RunControl(deadline=2.0, clock=SteppingClock())
    with pytest.raises(BuildInterruptedError) as excinfo:
        reachability_graph(net, engine="compiled", control=control)
    assert excinfo.value.checkpoint is None
    assert excinfo.value.reason == "deadline"


class TestDeadlineResume:
    """Deadline-interrupted builds resume bit-identically on every workload."""

    @pytest.mark.parametrize("expire_after", EXPIRE_POINTS)
    @pytest.mark.parametrize("label,constructor", BOUNDED_WORKLOADS, ids=BOUNDED_IDS)
    def test_untimed(self, tmp_path, label, constructor, expire_after):
        net = constructor()
        resumed, interrupted = interrupt_and_resume(
            lambda control: reachability_graph(net, engine="compiled", control=control),
            checkpoint_dir=str(tmp_path / "ckpt"),
            expire_after=expire_after,
        )
        assert interrupted, "budget was large enough to finish; shrink it"
        cold = reachability_graph(net, engine="compiled")
        assert_untimed_graphs_identical(resumed, cold)

    @pytest.mark.parametrize("label,constructor", BOUNDED_WORKLOADS, ids=BOUNDED_IDS)
    def test_batched_untimed(self, tmp_path, label, constructor):
        net = constructor()
        resumed, interrupted = interrupt_and_resume(
            lambda control: reachability_graph(net, engine="batched", control=control),
            checkpoint_dir=str(tmp_path / "ckpt"),
            expire_after=2,
        )
        assert interrupted
        cold = reachability_graph(net, engine="batched")
        assert_untimed_graphs_identical(resumed, cold)

    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_coverability(self, tmp_path, label, constructor):
        # Coverability handles the unbounded protocol nets too (that is its
        # point), so every workload participates.
        net = constructor()
        resumed, interrupted = interrupt_and_resume(
            lambda control: coverability_graph(net, engine="compiled", control=control),
            checkpoint_dir=str(tmp_path / "ckpt"),
            expire_after=2,
        )
        assert interrupted
        cold = coverability_graph(net, engine="compiled")
        assert_coverability_graphs_identical(resumed, cold)

    @pytest.mark.parametrize("engine", ["compiled", "batched"])
    @pytest.mark.parametrize(
        "label", ["producer-consumer", "token-ring", "go-back-n"]
    )
    def test_gspn(self, tmp_path, label, engine):
        net = dict(NUMERIC_WORKLOADS)[label]()

        def build(control):
            analysis = GSPNAnalysis(net, engine=engine, control=control)
            analysis._explore()
            return analysis

        resumed, interrupted = interrupt_and_resume(
            build, checkpoint_dir=str(tmp_path / "ckpt"), expire_after=2
        )
        assert interrupted
        assert_gspn_explorations_identical(resumed, GSPNAnalysis(net, engine=engine))

    @pytest.mark.parametrize("engine", ["compiled", "batched"])
    def test_gspn_rates_and_capacity(self, tmp_path, engine):
        # Explicit rates= overrides and place_capacity= reach the resumed
        # analysis only through the manifest.  On the paper protocol the
        # capacity truncates an otherwise unbounded marking graph and the
        # override changes every throughput.
        net = dict(NUMERIC_WORKLOADS)["paper-protocol"]()
        options = dict(engine=engine, rates={"t1": 2.0}, place_capacity=1)
        resumed, interrupted = interrupt_and_resume(
            lambda control: _explored_gspn(net, control=control, **options),
            checkpoint_dir=str(tmp_path / "ckpt"),
            expire_after=2,
        )
        assert interrupted
        cold = GSPNAnalysis(net, **options)
        assert_gspn_explorations_identical(resumed, cold)
        assert resumed.solve().throughput == cold.solve().throughput

    @pytest.mark.parametrize("engine", ["compiled", "batched"])
    def test_untimed_with_disk_store(self, tmp_path, engine):
        # store= combined with a checkpointing control: the compiled build
        # anchors its spool inside the checkpoint directory, the batched
        # build records the store in its manifest-only checkpoint.
        net = dict(NUMERIC_WORKLOADS)["go-back-n"]()
        checkpoint_dir = str(tmp_path / "ckpt")
        resumed, interrupted = interrupt_and_resume(
            lambda control: reachability_graph(
                net, engine=engine, store="disk", spill_threshold=0, control=control
            ),
            checkpoint_dir=checkpoint_dir,
            expire_after=2,
        )
        assert interrupted
        assert_untimed_graphs_identical(resumed, reachability_graph(net, engine=engine))
        manifest = Checkpoint.load(checkpoint_dir).manifest
        if engine == "batched":
            assert manifest["params"]["used_store"]
            assert manifest["params"]["spill_threshold"] == 0
        else:
            assert manifest["store_path"] == os.path.abspath(
                os.path.join(checkpoint_dir, "store")
            )


class TestCrashResume:
    """Hard crashes between periodic checkpoints lose work, never results."""

    @pytest.mark.parametrize("crash_at", (2, 7))
    @pytest.mark.parametrize("label,constructor", BOUNDED_WORKLOADS, ids=BOUNDED_IDS)
    def test_untimed(self, tmp_path, label, constructor, crash_at):
        net = constructor()
        cold = reachability_graph(net, engine="compiled")
        if cold.state_count <= crash_at:
            pytest.skip(f"{label} finishes before expansion {crash_at}")
        resumed = crash_and_resume(
            lambda control: reachability_graph(net, engine="compiled", control=control),
            checkpoint_dir=str(tmp_path / "ckpt"),
            crash_at=crash_at,
            checkpoint_every=1,
        )
        assert_untimed_graphs_identical(resumed, cold)

    def test_sparse_checkpoints_rewind_the_store(self, tmp_path):
        # checkpoint_every=3 with a crash at 7: the store's log holds items
        # committed after the last manifest (cursor 6); resume must rewind
        # to the manifest and still complete bit-identically.
        net = dict(NUMERIC_WORKLOADS)["go-back-n"]()
        resumed = crash_and_resume(
            lambda control: reachability_graph(net, engine="compiled", control=control),
            checkpoint_dir=str(tmp_path / "ckpt"),
            crash_at=7,
            checkpoint_every=3,
        )
        assert_untimed_graphs_identical(
            resumed, reachability_graph(net, engine="compiled")
        )

    @pytest.mark.parametrize("kind", sorted(CRASH_KINDS))
    def test_every_kind(self, tmp_path, kind):
        net = dict(NUMERIC_WORKLOADS)["go-back-n"]()
        build, assert_identical = CRASH_KINDS[kind]
        checkpoint_dir = str(tmp_path / "ckpt")
        resumed = crash_and_resume(
            lambda control: build(net, control),
            checkpoint_dir=checkpoint_dir,
            crash_at=7,
        )
        assert Checkpoint.load(checkpoint_dir).kind == kind
        assert_identical(resumed, build(net, None))

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
        derandomize=True,
    )
    @given(
        workload=st.sampled_from(BOUNDED_IDS),
        crash_at=st.integers(min_value=2, max_value=20),
    )
    def test_random_crash_points(self, tmp_path, workload, crash_at):
        net = dict(NUMERIC_WORKLOADS)[workload]()
        cold = reachability_graph(net, engine="compiled")
        if cold.state_count <= crash_at:
            return  # finishes before the scheduled crash
        checkpoint_dir = str(tmp_path / f"ckpt-{workload}-{crash_at}")
        resumed = crash_and_resume(
            lambda control: reachability_graph(net, engine="compiled", control=control),
            checkpoint_dir=checkpoint_dir,
            crash_at=crash_at,
            checkpoint_every=1,
        )
        assert_untimed_graphs_identical(resumed, cold)


class TestQueryResume:
    """Interrupted queries resume to the same answer, witness and path."""

    @staticmethod
    def _interrupt_query(tmp_path, run):
        control = RunControl(
            deadline=2.0,
            checkpoint_dir=str(tmp_path / "ckpt"),
            clock=SteppingClock(),
        )
        with pytest.raises(BuildInterruptedError) as excinfo:
            run(control)
        assert excinfo.value.checkpoint is not None
        return resume(excinfo.value.checkpoint)

    def test_find_deadlock_exhaustive(self, tmp_path):
        net = dict(NUMERIC_WORKLOADS)["go-back-n"]()
        cold = find_deadlock(net)
        resumed = self._interrupt_query(
            tmp_path, lambda control: find_deadlock(net, control=control)
        )
        assert (resumed.found, resumed.states_explored) == (
            cold.found,
            cold.states_explored,
        )

    def test_is_reachable_witness_and_path(self, tmp_path):
        net = dict(NUMERIC_WORKLOADS)["go-back-n"]()
        graph = reachability_graph(net, engine="compiled")
        target = graph.markings[-1]  # the deepest-discovered marking
        cold = is_reachable(net, target)
        assert cold.found
        resumed = self._interrupt_query(
            tmp_path, lambda control: is_reachable(net, target, control=control)
        )
        assert resumed.found
        assert resumed.witness == cold.witness
        assert resumed.witness_depth == cold.witness_depth
        assert resumed.path == cold.path
        assert resumed.states_explored == cold.states_explored

    def test_bound_check_negative(self, tmp_path):
        net = dict(NUMERIC_WORKLOADS)["token-ring"]()
        place = net.place_order[0]
        cold = bound_check(net, place, 10)
        assert not cold.found
        resumed = self._interrupt_query(
            tmp_path, lambda control: bound_check(net, place, 10, control=control)
        )
        assert (resumed.found, resumed.states_explored) == (
            cold.found,
            cold.states_explored,
        )

    def test_predicate_search_rejects_checkpointing(self, tmp_path):
        # An arbitrary Python predicate cannot be rebuilt from a manifest.
        net = dict(NUMERIC_WORKLOADS)["token-ring"]()
        control = RunControl(checkpoint_dir=str(tmp_path / "ckpt"))
        with pytest.raises(ValueError, match="predicate search"):
            search(net, lambda marking: False, control=control)


class TestStoreFailureSemantics:
    """Typed errors and bounded retry on the durable-store path."""

    @staticmethod
    def _checkpoint_dir(tmp_path, net) -> str:
        checkpoint_dir = str(tmp_path / "ckpt")
        control = RunControl(
            deadline=3.0, checkpoint_dir=checkpoint_dir, clock=SteppingClock()
        )
        with pytest.raises(BuildInterruptedError):
            reachability_graph(net, engine="compiled", control=control)
        return checkpoint_dir

    def test_corrupt_shard_named_on_reopen(self, tmp_path):
        net = dict(NUMERIC_WORKLOADS)["go-back-n"]()
        checkpoint_dir = self._checkpoint_dir(tmp_path, net)
        store_dir = os.path.join(checkpoint_dir, "store")
        victim = sorted(
            name for name in os.listdir(store_dir) if name.endswith(".db")
        )[0]
        with open(os.path.join(store_dir, victim), "r+b") as handle:
            handle.seek(0)
            handle.write(b"\xff" * 64)  # clobber the SQLite header
        with pytest.raises(StoreCorruptionError) as excinfo:
            resume(Checkpoint.load(checkpoint_dir))
        assert excinfo.value.shard == victim
        assert victim in str(excinfo.value)

    def test_transient_locks_absorbed_by_retry(self, tmp_path):
        net = dict(NUMERIC_WORKLOADS)["token-ring"]()
        cold = reachability_graph(net, engine="compiled")
        with faults.inject(FaultPlan(locked_writes=2)):
            built = reachability_graph(
                net, engine="compiled", store="disk", spill_threshold=0
            )
        assert_untimed_graphs_identical(built, cold)

    def test_broken_write_surfaces_as_store_error(self, tmp_path):
        net = dict(NUMERIC_WORKLOADS)["token-ring"]()
        with faults.inject(FaultPlan(broken_write_at=1)):
            with pytest.raises(StoreError):
                reachability_graph(
                    net, engine="compiled", store="disk", spill_threshold=0
                )

    def test_artifact_cache_retry_and_typed_error(self, tmp_path):
        from repro.analysis.cache import ArtifactCache

        net = dict(NUMERIC_WORKLOADS)["token-ring"]()
        with ArtifactCache(str(tmp_path / "cache")) as cache:
            key = cache.key_for(net, "stage-a")
            with faults.inject(FaultPlan(locked_writes=2)):
                artifact, tier = cache.fetch(
                    key, stage="stage-a", build=lambda: {"answer": 42}
                )
            assert (artifact, tier) == ({"answer": 42}, "built")
            with faults.inject(FaultPlan(broken_write_at=1)):
                with pytest.raises(StoreError):
                    cache.fetch(
                        cache.key_for(net, "stage-b"),
                        stage="stage-b",
                        build=lambda: {"answer": 43},
                    )


class TestCancellationTokenRace:
    """``cancel()`` is a locked test-and-set: of two concurrent cancellers
    (a server's DELETE handler racing a deadline timer) the **first** reason
    must win.  (Regression: an unlocked check-then-set let both pass the
    ``is_set`` gate, and the last writer's reason won.)"""

    class _SlowEvent(threading.Event):
        """An Event whose ``set()`` dallies — widening the check-then-set
        window from nanoseconds to a deterministic 200ms."""

        def set(self):
            time.sleep(0.2)
            super().set()

    def test_first_reason_wins_under_contention(self):
        token = CancellationToken()
        token._event = self._SlowEvent()

        first = threading.Thread(target=lambda: token.cancel("first"))
        first.start()
        time.sleep(0.05)  # let "first" enter cancel() and stall in set()
        token.cancel("second")
        first.join()

        assert token.cancelled
        assert token.reason == "first"

    def test_reason_stable_across_many_cancellers(self):
        token = CancellationToken()
        barrier = threading.Barrier(8)
        reasons = [f"canceller-{index}" for index in range(8)]

        def cancel(reason):
            barrier.wait()
            token.cancel(reason)

        threads = [threading.Thread(target=cancel, args=(r,)) for r in reasons]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        winner = token.reason
        assert winner in reasons
        token.cancel("latecomer")
        assert token.reason == winner


class TestManifestDurability:
    """``write_manifest`` must fsync the temporary file *before* the atomic
    ``os.replace`` — otherwise a power loss can preserve the rename while
    dropping the payload, i.e. exactly the torn manifest the replace is
    there to prevent.  (Regression: no fsync was issued at all.)"""

    def test_payload_fsynced_before_replace(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", fd))
            return real_fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", src, dst))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)

        directory = str(tmp_path / "ckpt")
        write_manifest(directory, {"version": 1, "kind": "test"})

        kinds = [event[0] for event in events]
        assert "fsync" in kinds, "manifest payload never fsynced"
        replace_at = kinds.index("replace")
        assert "fsync" in kinds[:replace_at], (
            "manifest payload must be fsynced before os.replace, "
            f"got order {kinds}"
        )
        # The rename itself is made durable by a best-effort directory fsync.
        assert "fsync" in kinds[replace_at + 1 :]
        # And the manifest actually landed, reloadable.
        with open(os.path.join(directory, MANIFEST_NAME), "rb") as handle:
            assert pickle.load(handle)["kind"] == "test"
