"""Run control for long graph constructions: deadlines, cancellation,
progress, checkpoints and bit-identical resume.

The ROADMAP's analysis-as-a-service item needs builds that can be bounded,
observed, interrupted and continued.  This module is that layer:

* :class:`RunControl` — one object threaded through the shared frontier
  core (:func:`repro.engine.frontier.explore`) and accepted by every
  store-capable builder (compiled/batched untimed reachability, GSPN,
  Karp–Miller coverability) plus the query layer.  It carries a wall-clock
  ``deadline``, a cooperative :class:`CancellationToken`, a ``progress``
  callback invoked every ``progress_every`` expansions, and
  ``checkpoint_every=N`` + ``checkpoint_dir`` for periodic durable
  snapshots.
* :class:`Checkpoint` — a handle on a checkpoint directory: the builder's
  :class:`~repro.engine.store.DiskStateStore` spool (dedup index + FIFO
  item log, persisted with one transaction per file) next to an atomically
  replaced manifest holding the net (via :mod:`repro.petri.io.jsonio`),
  the builder parameters, the expansion cursor and the edges reported so
  far.
* :func:`resume` — completes an interrupted build **bit-identically** to
  an uninterrupted one by re-entering the builder that wrote the
  checkpoint (``resume_from=``) at the saved cursor, so cold and resumed
  builds run one code path.  The FIFO contract makes this sound: checkpoints
  happen at item boundaries (scalar loops) or level boundaries (batched
  loops), the store's log fixes the interning order of every discovered
  state, and re-expanding from the cursor re-derives exactly the missing
  edges — re-interned successors resolve to their existing indices.  A
  manifest older than the store (a crash between periodic checkpoints)
  only means a few items are re-expanded; the result is unchanged.
* :func:`build_store` — the one rule picking the store a build runs on:
  reference engines take none, a scalar checkpoint anchors its spool in
  the checkpoint directory, and a batched checkpoint is manifest-only, so
  there the store only bounds memory.

Builders raise :class:`~repro.exceptions.BuildInterruptedError` carrying
the checkpoint handle; the CLI surfaces the same machinery as
``--deadline`` / ``--checkpoint-every`` / ``--checkpoint-dir`` plus a
``resume`` subcommand, and :func:`cancel_on_sigint` turns Ctrl-C into a
final checkpoint instead of a stack trace.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from ..exceptions import BuildInterruptedError, StoreError

#: Manifest file name inside a checkpoint directory.
MANIFEST_NAME = "checkpoint.pkl"

#: Manifest format version (bump on incompatible layout changes).
MANIFEST_VERSION = 1


class CancellationToken:
    """A thread-safe cooperative cancellation flag.

    ``cancel()`` may be called from any thread (a signal handler, a server
    request handler, a timer); the frontier loops poll :attr:`cancelled`
    between expansions and stop at the next item/level boundary.
    """

    def __init__(self):
        self._event = threading.Event()
        self._reason: Optional[str] = None
        self._lock = threading.Lock()

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; the first reason wins).

        The test-and-set runs under a lock: two concurrent cancellers (a
        server's DELETE handler racing a deadline timer) must not both pass
        the ``is_set`` gate, or the *last* reason would win.
        """
        with self._lock:
            if not self._event.is_set():
                self._reason = reason
                self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        """The reason passed to :meth:`cancel`, or ``None``."""
        return self._reason


@dataclass(frozen=True)
class Progress:
    """One progress report handed to ``RunControl.progress``."""

    expanded: int
    states: int
    edges: int
    seconds: float


class RunControl:
    """Deadline, cancellation, progress and checkpoint policy of one build.

    Parameters
    ----------
    deadline:
        Wall-clock budget in seconds (measured by ``clock`` from the start
        of the build).  When it expires the build stops at the next
        item/level boundary and raises
        :class:`~repro.exceptions.BuildInterruptedError` (reason
        ``"deadline"``), writing a final checkpoint when configured.
    token:
        A :class:`CancellationToken`; one is created when omitted.
    checkpoint_every:
        Write a durable checkpoint every N expanded states (scalar loops)
        or at the first level boundary past every N (batched loops).
        Requires ``checkpoint_dir``.
    checkpoint_dir:
        Directory for the checkpoint (store spool + manifest).  Also
        enables the final checkpoint written on interruption.
    progress:
        Callback receiving a :class:`Progress` every ``progress_every``
        expansions.
    clock:
        Monotonic time source (injectable for deterministic deadline
        tests, e.g. :class:`repro.engine.faults.SteppingClock`).
    """

    def __init__(
        self,
        *,
        deadline: Optional[float] = None,
        token: Optional[CancellationToken] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        progress: Optional[Callable[[Progress], None]] = None,
        progress_every: int = 1000,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline!r}")
        if checkpoint_every is not None:
            if not isinstance(checkpoint_every, int) or checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be a positive integer, got {checkpoint_every!r}"
                )
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        if progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every!r}")
        self.deadline = deadline
        self.token = token if token is not None else CancellationToken()
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.progress = progress
        self.progress_every = progress_every
        self.clock = clock
        self._started_at: Optional[float] = None
        self._expiry: Optional[float] = None
        self._next_checkpoint: Optional[int] = None
        self._next_progress = 0

    def cancel(self, reason: str = "cancelled") -> None:
        """Convenience passthrough to the token."""
        self.token.cancel(reason)

    @property
    def wants_checkpoint(self) -> bool:
        """True when a checkpoint directory was configured."""
        return self.checkpoint_dir is not None

    def elapsed(self) -> float:
        """Seconds since the build (or resumed build) started."""
        if self._started_at is None:
            return 0.0
        return self.clock() - self._started_at

    # -- internal protocol used by the frontier loops --------------------

    def _begin(self, start: int = 0) -> None:
        """(Re)arm the control at expansion cursor ``start``."""
        self._started_at = self.clock()
        self._expiry = (
            self._started_at + self.deadline if self.deadline is not None else None
        )
        self._next_checkpoint = (
            start + self.checkpoint_every if self.checkpoint_every is not None else None
        )
        self._next_progress = start + self.progress_every

    def _pulse(self, expanded: int, states: int, edges: int) -> Optional[str]:
        """One per-expansion (or per-level) check.

        Emits a progress report when due and returns the interruption
        reason (``"deadline"`` or the cancellation reason) or ``None``.
        """
        if self._started_at is None:
            self._begin(expanded)
        if self.progress is not None and expanded >= self._next_progress:
            self._next_progress = expanded + self.progress_every
            self.progress(
                Progress(
                    expanded=expanded,
                    states=states,
                    edges=edges,
                    seconds=self.elapsed(),
                )
            )
        if self.token.cancelled:
            return self.token.reason or "cancelled"
        if self._expiry is not None and self.clock() >= self._expiry:
            return "deadline"
        return None

    def _due_checkpoint(self, expanded: int) -> bool:
        """True when a periodic checkpoint is due at cursor ``expanded``."""
        if self._next_checkpoint is None or not self.wants_checkpoint:
            return False
        if expanded >= self._next_checkpoint:
            self._next_checkpoint = expanded + self.checkpoint_every
            return True
        return False


class Checkpoint:
    """Handle on a checkpoint directory (manifest + durable store spool)."""

    def __init__(self, path: str, manifest: dict):
        self.path = path
        self.manifest = manifest

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Load the manifest of checkpoint directory ``path``."""
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise StoreError(f"no checkpoint manifest at {manifest_path!r}")
        with open(manifest_path, "rb") as handle:
            manifest = pickle.load(handle)
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise StoreError(
                f"unsupported checkpoint manifest version {version!r} "
                f"(expected {MANIFEST_VERSION}) in {manifest_path!r}"
            )
        return cls(path, manifest)

    @property
    def kind(self) -> str:
        """Builder family: ``untimed``/``coverability``/``gspn``/
        ``batched-untimed``/``batched-gspn``/``query``."""
        return self.manifest["kind"]

    @property
    def cursor(self) -> int:
        """Expansion cursor the resumed build continues from."""
        return self.manifest["cursor"]

    @property
    def reason(self) -> str:
        """Why this checkpoint was written (``periodic``, ``deadline``, a
        cancellation reason)."""
        return self.manifest["reason"]

    @property
    def net_key(self) -> str:
        """Declaration-order cache key of the checkpointed net."""
        return self.manifest["net_key"]

    def restore_net(self):
        """Rebuild the checkpointed :class:`~repro.petri.net.PetriNet`."""
        from ..petri.io.jsonio import net_from_dict

        return net_from_dict(self.manifest["net"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Checkpoint(kind={self.kind!r}, cursor={self.cursor}, "
            f"reason={self.reason!r}, path={self.path!r})"
        )


def write_manifest(path: str, payload: dict) -> None:
    """Atomically write a checkpoint manifest into directory ``path``.

    Pickle to a temporary sibling, flush and ``fsync`` it, then
    ``os.replace`` — a crash (or power loss) mid-write leaves the previous
    manifest intact, never a torn one.  Without the fsync the rename could
    survive a power loss while the payload does not, which is exactly the
    torn manifest the atomic replace promises to prevent.  The directory
    entry is fsynced best-effort afterwards so the rename itself is durable.
    """
    os.makedirs(path, exist_ok=True)
    target = os.path.join(path, MANIFEST_NAME)
    temporary = target + ".tmp"
    with open(temporary, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, target)
    try:
        directory_fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform without directory opens
        return
    try:
        os.fsync(directory_fd)
    except OSError:  # pragma: no cover - filesystem without directory fsync
        pass
    finally:
        os.close(directory_fd)


class CheckpointWriter:
    """Builder-side checkpoint serializer.

    ``extra`` is a zero-argument callable returning the builder-specific
    continuation payload (edge tuples, coverability parent chain, batched
    state matrix, query spec, ...), evaluated at write time.
    """

    def __init__(
        self,
        control: RunControl,
        *,
        kind: str,
        net,
        params: dict,
        extra: Callable[[], dict],
        store=None,
    ):
        self.control = control
        self.kind = kind
        self.net = net
        self.params = dict(params)
        self.extra = extra
        self.store = store
        self._net_payload: Optional[dict] = None
        self._net_key: Optional[str] = None

    def write(self, cursor: int, reason: str = "periodic") -> None:
        """Persist the store and write the manifest for ``cursor``."""
        if self._net_payload is None:
            from ..petri.fingerprint import net_cache_key
            from ..petri.io.jsonio import net_to_dict

            self._net_payload = net_to_dict(self.net)
            self._net_key = net_cache_key(self.net)
        if self.store is not None:
            self.store.persist()
        payload = {
            "version": MANIFEST_VERSION,
            "kind": self.kind,
            "net": self._net_payload,
            "net_key": self._net_key,
            "cursor": cursor,
            "reason": reason,
            "params": dict(self.params),
            "extra": self.extra(),
        }
        if self.store is not None:
            payload["store_path"] = os.path.abspath(self.store.path)
            payload["shards"] = self.store.shards
            payload["item_count"] = self.store.item_count
        write_manifest(self.control.checkpoint_dir, payload)


def open_checkpoint_store(checkpoint: Checkpoint):
    """Reopen (and rewind) the durable store behind a checkpoint.

    The spool is integrity-probed by :meth:`DiskStateStore.open`, then
    rewound to the manifest's committed item count: the store's batch
    flushing may have committed states discovered *after* the manifest was
    last written (a crash between a flush and the next checkpoint), and the
    resumed expansion re-derives those deterministically.
    """
    from .store import DiskStateStore

    manifest = checkpoint.manifest
    path = manifest.get("store_path")
    if path is None:
        raise StoreError(
            f"checkpoint at {checkpoint.path!r} carries no store spool "
            "(its kind keeps state in the manifest itself)"
        )
    store = DiskStateStore.open(path)
    expected = manifest.get("item_count")
    if expected is not None:
        if store.item_count < expected:
            raise StoreError(
                f"checkpoint store at {path!r} holds {store.item_count} items "
                f"but the manifest expects {expected}; the spool is incomplete"
            )
        if store.item_count > expected:
            store.truncate(expected)
    return store


def build_store(engine, store, *, spill_threshold=None, control=None):
    """The store a build runs on, as ``(store, owned)``: the one store rule.

    * ``engine="reference"`` takes neither ``store=`` nor ``control=``.
    * A scalar (``"compiled"``) checkpoint is the store spool plus the
      manifest, so a checkpointing ``control`` makes the build run through a
      durable store: ``None``/``"disk"`` become a spool anchored at
      ``<checkpoint_dir>/store``, and an explicit anonymous store is
      rejected because its temporary spool would vanish on close.
    * A batched checkpoint is manifest-only, so there — and whenever nothing
      checkpoints — the store only bounds memory: exactly
      :func:`repro.engine.store.resolve_store`.

    ``owned`` tells the caller whether it must close the store when the
    build finishes.
    """
    from . import ENGINE_COMPILED, ENGINE_REFERENCE
    from .store import DiskStateStore, resolve_store

    if engine == ENGINE_REFERENCE:
        if store is not None or control is not None:
            raise ValueError(
                "store= and control= are only supported by the frontier-core "
                "engines ('compiled' and 'batched')"
            )
        return None, False
    if engine != ENGINE_COMPILED or control is None or not control.wants_checkpoint:
        return resolve_store(store, spill_threshold=spill_threshold)
    if isinstance(store, DiskStateStore):
        if store.path is None:
            raise ValueError(
                "checkpointing requires a durable store: pass a DiskStateStore "
                "with an explicit path, or pass store=None/'disk' to anchor one "
                "inside the checkpoint directory"
            )
        return store, False
    if store is None or store == "disk":
        kwargs = {}
        if spill_threshold is not None:
            kwargs["spill_threshold"] = spill_threshold
        anchored = os.path.join(control.checkpoint_dir, "store")
        return DiskStateStore(anchored, **kwargs), True
    raise ValueError(
        f"store must be None, 'disk' or a DiskStateStore instance, got {store!r}"
    )


def raise_interrupted(stats, writer: Optional[CheckpointWriter], control, what: str):
    """Write the final checkpoint (when configured) and raise.

    Called by builders after :func:`~repro.engine.frontier.explore` returns
    with ``stats.interrupt_reason`` set.
    """
    reason = stats.interrupt_reason or "cancelled"
    cursor = stats.interrupted_at if stats.interrupted_at is not None else 0
    checkpoint = None
    suffix = ""
    if writer is not None and control is not None and control.wants_checkpoint:
        writer.write(cursor, reason=reason)
        checkpoint = Checkpoint.load(control.checkpoint_dir)
        suffix = f"; checkpoint written to {checkpoint.path}"
    raise BuildInterruptedError(
        f"{what} interrupted ({reason}) after {cursor} expanded states"
        f" ({stats.states} states, {stats.edges} edges discovered){suffix}",
        checkpoint=checkpoint,
        reason=reason,
    )


def resume(checkpoint, *, control: Optional[RunControl] = None):
    """Complete an interrupted build from its checkpoint.

    ``checkpoint`` is a :class:`Checkpoint` or a checkpoint directory path.
    Returns the same artifact the uninterrupted builder would have —
    an :class:`~repro.petri.untimed.UntimedReachabilityGraph`, a
    :class:`~repro.petri.untimed.CoverabilityGraph`, a solved-ready
    :class:`~repro.stochastic.gspn.GSPNAnalysis`, or the query layer's
    :class:`~repro.engine.query.QueryResult` — **bit-identical** to a cold
    build (the differential harness in ``tests/engine_diff.py`` gates
    this).  Pass a fresh ``control`` to keep the resumed run itself under a
    deadline/checkpoint policy; a second interruption raises
    :class:`~repro.exceptions.BuildInterruptedError` with an updated
    checkpoint, so resume can be repeated any number of times.

    This is the only resume entry point: it opens the store for the
    checkpoint's ``kind`` and re-enters the builder that wrote the
    checkpoint with ``resume_from=checkpoint``, so a resumed build runs the
    cold build's code from the saved cursor.
    """
    from .store import DiskStateStore

    if not isinstance(checkpoint, Checkpoint):
        checkpoint = Checkpoint.load(os.fspath(checkpoint))
    kind = checkpoint.kind
    params = checkpoint.manifest["params"]
    net = checkpoint.restore_net()
    if kind in ("batched-untimed", "batched-gspn"):
        # Manifest-only: a fresh spool bounds memory, as in the original run.
        store = (
            DiskStateStore(spill_threshold=params["spill_threshold"])
            if params["used_store"]
            else None
        )
    elif kind in ("untimed", "coverability", "gspn", "query"):
        store = open_checkpoint_store(checkpoint)
    else:
        raise StoreError(f"unknown checkpoint kind {kind!r} in {checkpoint.path!r}")
    options = dict(store=store, control=control, resume_from=checkpoint)
    try:
        if kind == "untimed":
            from .untimed import compiled_reachability_graph

            return compiled_reachability_graph(
                net, max_states=params["max_states"], **options
            )
        if kind == "batched-untimed":
            from .batched import batched_reachability_graph

            return batched_reachability_graph(
                net, max_states=params["max_states"], **options
            )
        if kind == "coverability":
            from .untimed import compiled_coverability_graph

            return compiled_coverability_graph(
                net, max_nodes=params["max_nodes"], **options
            )
        if kind == "query":
            from .query import _drive_query, _stop_from_spec

            spec = params["spec"]
            return _drive_query(
                net,
                _stop_from_spec(net, spec),
                params["max_states"],
                store,
                control=control,
                spec=spec,
                resume_from=checkpoint,
            )
        from ..stochastic.gspn import _resume_analysis

        return _resume_analysis(net, **options)
    finally:
        # The spool outlives the build (its path is explicit); the SQLite
        # connections must not.
        if store is not None:
            store.close()


@contextmanager
def cancel_on_sigint(control: RunControl, *, reason: str = "interrupted (Ctrl-C)"):
    """Turn the first SIGINT into a cooperative cancellation.

    The build then stops at the next item/level boundary and writes its
    final checkpoint instead of unwinding through a ``KeyboardInterrupt``
    (which would leave no checkpoint).  A second SIGINT restores the
    previous handler, so an unresponsive build can still be killed the
    usual way.  Outside the main thread (where signal handlers cannot be
    installed) this is a no-op.
    """
    try:
        previous = signal.getsignal(signal.SIGINT)

        def _handler(signum, frame):  # pragma: no cover - exercised via CLI
            control.cancel(reason)
            signal.signal(signal.SIGINT, previous)

        signal.signal(signal.SIGINT, _handler)
    except ValueError:  # not the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


__all__ = [
    "CancellationToken",
    "Checkpoint",
    "CheckpointWriter",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "Progress",
    "RunControl",
    "build_store",
    "cancel_on_sigint",
    "open_checkpoint_store",
    "raise_interrupted",
    "resume",
    "write_manifest",
]
