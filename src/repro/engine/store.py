"""Disk-backed state store: out-of-core frontier exploration.

Every builder used to hold its whole working set in memory — the dedup index
(vector → state index), the FIFO item log the frontier loop expands, and for
the batched kernel the dense state matrix.  That caps exploration at whatever
fits in RAM.  This module adds the spill layer underneath the shared frontier
core of :mod:`repro.engine.frontier`:

* :class:`DiskStateStore` — a hybrid memory/SQLite store.  Below the
  configurable ``spill_threshold`` everything stays in plain dicts and lists
  (zero overhead, bit-identical to the historical in-memory path by
  construction); once the interned-state count crosses the threshold the
  store **spills**: the dedup index moves into SQLite *shard* files selected
  by the deterministic ``hash(vec) % shards`` function :func:`shard_of`
  (tuple-of-int hashing is not salted, so a spool written by one process
  can be reopened by another), and the FIFO item log moves into a sequential
  ``log.db`` keyed by state index.  Thereafter new writes are buffered and
  flushed in batches, so resident memory stays bounded by the threshold plus
  one flush batch while the BFS keeps going.

* durability — every flush is one SQLite transaction, so a crashed build
  leaves a consistent prefix on disk; :meth:`DiskStateStore.open` reopens an
  existing spool directory and continues interning where the last committed
  batch ended (see the crash-then-reopen test).

The store is deliberately engine-agnostic: ``intern`` deduplicates any
picklable key (token-vector tuples for the untimed/GSPN kernels, work
vectors with ``ω`` components for Karp–Miller), the item log carries any
picklable payload (the kernels' ``(vec, enabled)`` items, the query layer's
``(item, parent, transition)`` records, the batched kernel's raw rows), and
the two can be used independently — the batched kernel keeps its packed
``int64`` dedup keys resident (8 bytes per state) and spills only the dense
vector rows through the log.

Stores are handed to builders through the public ``store=`` argument of
:func:`repro.petri.untimed.reachability_graph` /
:func:`repro.petri.untimed.coverability_graph` / ``GSPNAnalysis`` (pass
``"disk"`` for a self-cleaning temporary spool, or an instance for an
explicit spool directory) and to the query layer of
:mod:`repro.engine.query`; the CLI exposes them as ``--store disk
--spill-threshold N --store-dir PATH``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import sqlite3
import tempfile
import time
from typing import Dict, Iterator, List, Optional, Tuple

from ..exceptions import StoreCorruptionError, StoreError
from . import faults

#: Default interned-state count above which the store moves to disk.
DEFAULT_SPILL_THRESHOLD = 100_000

#: Default shard-file count of the on-disk dedup index.
DEFAULT_SHARDS = 4

#: Buffered writes are committed to SQLite in batches of this many states.
_FLUSH_BATCH = 2048

#: Read-back chunk size of :meth:`DiskStateStore.items_range`.
_READ_CHUNK = 4096

#: Transient-lock retry policy: attempts and first backoff delay (doubled
#: per attempt: 50ms, 100ms, 200ms, 400ms before the final try).
RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 0.05


def locked_retry(
    operation,
    *,
    what: str = "sqlite write",
    attempts: int = RETRY_ATTEMPTS,
    base_delay: float = RETRY_BASE_DELAY,
    sleep=time.sleep,
):
    """Run ``operation`` retrying transient SQLite lock errors with backoff.

    ``OperationalError`` conditions whose message marks them transient
    ("database is locked" / "database is busy") are retried up to
    ``attempts`` times with exponentially growing delays; anything else —
    and the final exhausted retry — surfaces as a typed
    :class:`~repro.exceptions.StoreError`.  Shared by
    :class:`DiskStateStore` and the :class:`~repro.analysis.cache.ArtifactCache`
    disk tier.
    """
    last = None
    for attempt in range(attempts):
        try:
            return operation()
        except sqlite3.OperationalError as error:
            message = str(error).lower()
            if "locked" not in message and "busy" not in message:
                raise StoreError(f"{what} failed: {error}") from error
            last = error
            if attempt + 1 < attempts:
                sleep(base_delay * (2 ** attempt))
    raise StoreError(
        f"{what} still locked after {attempts} attempts: {last}"
    ) from last


def shard_of(key, shards: int) -> int:
    """The dedup shard file that owns a state key.

    Tuple-of-int hashing is deterministic across processes (hash
    randomization only salts str/bytes), so a spool directory written by one
    process assigns every key to the same shard file when reopened by
    another.
    """
    return hash(key) % shards


def _encode(value) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _decode(blob: bytes):
    return pickle.loads(blob)


class DiskStateStore:
    """Hybrid memory/SQLite state store with a configurable spill threshold.

    Parameters
    ----------
    path:
        Spool directory for the SQLite files.  ``None`` (default) creates a
        private temporary directory that :meth:`close` removes; an explicit
        path is left on disk for reopening (crash recovery, offline
        inspection).
    shards:
        Number of dedup shard files, selected by ``hash(key) % shards``.
    spill_threshold:
        Interned-state count above which the resident dicts move to disk.
        ``None`` means never spill (a pure in-memory store with the same
        API); ``0`` spills on the first intern.

    The FIFO/intern contract is exactly the in-memory one — ``intern``
    assigns indices in first-occurrence order and ``item_at`` returns the
    payload logged for an index — so a build through the store is
    bit-identical to one through plain dicts at *any* threshold.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        shards: int = DEFAULT_SHARDS,
        spill_threshold: Optional[int] = DEFAULT_SPILL_THRESHOLD,
    ):
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ValueError(f"shards must be a positive integer, got {shards!r}")
        if spill_threshold is not None and (
            not isinstance(spill_threshold, int)
            or isinstance(spill_threshold, bool)
            or spill_threshold < 0
        ):
            raise ValueError(
                f"spill_threshold must be a non-negative integer or None, got {spill_threshold!r}"
            )
        self.shards = shards
        self.spill_threshold = spill_threshold
        self._owns_path = path is None
        self.path = path
        self._spilled = False
        # Resident phase: plain dict/list, exactly the historical working set.
        self._index_of: Dict[object, int] = {}
        self._items: List[object] = []
        self._count = 0
        self._item_count = 0
        # Spilled phase: per-shard dedup connections + one sequential log.
        self._shard_dbs: List[Optional[sqlite3.Connection]] = []
        self._log_db: Optional[sqlite3.Connection] = None
        # Write buffers (flushed in one transaction per _FLUSH_BATCH states).
        self._pending_keys: List[List[Tuple[bytes, int]]] = []
        self._pending_keys_lookup: Dict[object, int] = {}
        self._pending_items: List[Tuple[int, bytes]] = []
        self._pending = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Reopening an existing spool (crash recovery)
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str, *, shards: Optional[int] = None) -> "DiskStateStore":
        """Reopen a spool directory written by an earlier (possibly crashed)
        store and continue from its last committed batch.

        The shard count is read back from the directory unless given; the
        reopened store starts spilled (resident count zero) with the next
        intern index following the highest committed one.

        Every spool file is integrity-probed first (``PRAGMA quick_check``
        plus a schema check), so a truncated or corrupted shard raises a
        :class:`~repro.exceptions.StoreCorruptionError` naming the exact
        file instead of failing later with an opaque SQLite error.  A crash
        *between* the shard and log transactions of one flush leaves dedup
        keys whose log items were never committed; those orphans are
        dropped on reopen so the store is exactly the committed prefix
        (interning will re-discover the states).
        """
        files = sorted(
            name for name in os.listdir(path)
            if name.startswith("shard") and name.endswith(".db")
        )
        if not files:
            raise FileNotFoundError(f"no shard files in spool directory {path!r}")
        for name in files:
            cls._probe(path, name, "states")
        if os.path.exists(os.path.join(path, "log.db")):
            cls._probe(path, "log.db", "items")
        if shards is None:
            shards = len(files)
        store = cls(path, shards=shards, spill_threshold=0)
        store._open_databases()
        store._spilled = True
        count = 0
        for db in store._shard_dbs:
            count += db.execute("SELECT COUNT(*) FROM states").fetchone()[0]
        row = store._log_db.execute("SELECT COUNT(*) FROM items").fetchone()
        item_count = row[0]
        if count > item_count:
            for db in store._shard_dbs:
                with db:
                    db.execute("DELETE FROM states WHERE idx >= ?", (item_count,))
            count = item_count
        store._count = count
        store._item_count = item_count
        return store

    @staticmethod
    def _probe(path: str, filename: str, table: str) -> None:
        """Integrity-probe one spool file; raise naming it when bad."""
        full = os.path.join(path, filename)
        try:
            db = sqlite3.connect(full)
            try:
                row = db.execute("PRAGMA quick_check").fetchone()
                if row is None or row[0] != "ok":
                    detail = row[0] if row else "no integrity result"
                    raise StoreCorruptionError(
                        f"spool file {full!r} failed its integrity probe: {detail}",
                        shard=filename,
                    )
                exists = db.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' AND name=?",
                    (table,),
                ).fetchone()
                if exists is None:
                    raise StoreCorruptionError(
                        f"spool file {full!r} is missing its {table!r} table",
                        shard=filename,
                    )
            finally:
                db.close()
        except sqlite3.DatabaseError as error:
            raise StoreCorruptionError(
                f"spool file {full!r} failed its integrity probe: {error}",
                shard=filename,
            ) from error

    # ------------------------------------------------------------------
    # Spill machinery
    # ------------------------------------------------------------------

    def _open_databases(self) -> None:
        if self.path is None:
            self.path = tempfile.mkdtemp(prefix="repro-store-")
        else:
            os.makedirs(self.path, exist_ok=True)
        self._shard_dbs = []
        for shard in range(self.shards):
            db = sqlite3.connect(os.path.join(self.path, f"shard{shard:03d}.db"))
            db.execute("PRAGMA synchronous=OFF")
            db.execute("CREATE TABLE IF NOT EXISTS states (key BLOB PRIMARY KEY, idx INTEGER NOT NULL)")
            self._shard_dbs.append(db)
        self._log_db = sqlite3.connect(os.path.join(self.path, "log.db"))
        self._log_db.execute("PRAGMA synchronous=OFF")
        self._log_db.execute(
            "CREATE TABLE IF NOT EXISTS items (idx INTEGER PRIMARY KEY, payload BLOB NOT NULL)"
        )
        self._pending_keys = [[] for _ in range(self.shards)]

    def _spill(self) -> None:
        """Move the resident working set to disk (one transaction per shard)."""
        self._open_databases()
        self._spilled = True
        for key, index in self._index_of.items():
            self._pending_keys[shard_of(key, self.shards)].append((_encode(key), index))
        for index, item in enumerate(self._items):
            self._pending_items.append((index, _encode(item)))
        self._index_of = {}
        self._items = []
        self.flush()

    def flush(self) -> None:
        """Commit every buffered write durably (one transaction per file).

        Each transaction runs under :func:`locked_retry`, so a concurrent
        reader holding a transient lock delays the commit instead of
        killing the build; the fault-injection hook fires inside the
        retried operation so injected lock errors exercise the same path.
        """
        if not self._spilled:
            return
        for shard, rows in enumerate(self._pending_keys):
            if rows:
                db = self._shard_dbs[shard]

                def _commit_shard(db=db, rows=rows):
                    faults.on_store_write()
                    with db:
                        db.executemany(
                            "INSERT OR IGNORE INTO states VALUES (?, ?)", rows
                        )

                locked_retry(_commit_shard, what=f"dedup shard {shard} commit")
                rows.clear()
        if self._pending_items:

            def _commit_log():
                faults.on_store_write()
                with self._log_db:
                    self._log_db.executemany(
                        "INSERT OR REPLACE INTO items VALUES (?, ?)",
                        self._pending_items,
                    )

            locked_retry(_commit_log, what="item log commit")
            self._pending_items.clear()
        self._pending_keys_lookup = {}
        self._pending = 0

    def truncate(self, item_count: int) -> None:
        """Rewind a spilled spool to its first ``item_count`` entries.

        Drops interned keys and logged items with indices past the cut.
        The checkpoint layer uses this on resume to rewind a spool to the
        manifest's committed prefix: the store's batch flushing may have
        committed states discovered *after* the last manifest was written
        (a crash between a flush and the next checkpoint), and resuming
        replays those expansions deterministically anyway.
        """
        if not self._spilled:
            raise StoreError("truncate applies to spilled stores only")
        self.flush()
        for db in self._shard_dbs:

            def _cut_shard(db=db):
                faults.on_store_write()
                with db:
                    db.execute("DELETE FROM states WHERE idx >= ?", (item_count,))

            locked_retry(_cut_shard, what="dedup shard truncate")

        def _cut_log():
            faults.on_store_write()
            with self._log_db:
                self._log_db.execute("DELETE FROM items WHERE idx >= ?", (item_count,))

        locked_retry(_cut_log, what="item log truncate")
        self._count = min(self._count, item_count)
        self._item_count = min(self._item_count, item_count)

    def persist(self) -> None:
        """Force the full working set durably onto disk (spill if resident).

        The checkpoint layer calls this before writing a manifest, so the
        spool under :attr:`path` holds every interned state and logged item
        whatever the spill threshold — a below-threshold build checkpoints
        just as well as a spilled one.
        """
        if self._closed:
            raise StoreError("cannot persist a closed store")
        if not self._spilled:
            if self.path is None:
                raise StoreError(
                    "cannot persist an anonymous in-memory store; create it "
                    "with an explicit path so the spool survives close()"
                )
            self._spill()
        else:
            self.flush()

    def _maybe_spill(self) -> None:
        if self._spilled:
            if self._pending >= _FLUSH_BATCH:
                self.flush()
        elif self.spill_threshold is not None and (
            max(self._count, self._item_count) > self.spill_threshold
        ):
            self._spill()

    # ------------------------------------------------------------------
    # Dedup index
    # ------------------------------------------------------------------

    def intern(self, key) -> Tuple[int, bool]:
        """Deduplicate ``key`` into the store; returns ``(index, is_new)``.

        Indices are assigned in first-occurrence order — exactly the FIFO
        interning contract of the in-memory dicts this store replaces.
        """
        if not self._spilled:
            existing = self._index_of.get(key)
            if existing is not None:
                return existing, False
            index = self._count
            self._index_of[key] = index
            self._count = index + 1
            self._maybe_spill()
            return index, True
        existing = self._pending_keys_lookup.get(key)
        if existing is not None:
            return existing, False
        blob = _encode(key)
        shard = shard_of(key, self.shards)
        row = self._shard_dbs[shard].execute(
            "SELECT idx FROM states WHERE key = ?", (blob,)
        ).fetchone()
        if row is not None:
            return row[0], False
        index = self._count
        self._pending_keys[shard].append((blob, index))
        self._pending_keys_lookup[key] = index
        self._count = index + 1
        self._pending += 1
        self._maybe_spill()
        return index, True

    def index_of(self, key) -> Optional[int]:
        """The interned index of ``key``, or ``None`` when never interned."""
        if not self._spilled:
            return self._index_of.get(key)
        existing = self._pending_keys_lookup.get(key)
        if existing is not None:
            return existing
        shard = shard_of(key, self.shards)
        row = self._shard_dbs[shard].execute(
            "SELECT idx FROM states WHERE key = ?", (_encode(key),)
        ).fetchone()
        return row[0] if row is not None else None

    # ------------------------------------------------------------------
    # FIFO item log
    # ------------------------------------------------------------------

    def append_item(self, item) -> int:
        """Append one payload to the FIFO log; returns its index."""
        index = self._item_count
        if not self._spilled:
            self._items.append(item)
            self._item_count = index + 1
            self._maybe_spill()
            return index
        self._pending_items.append((index, _encode(item)))
        self._item_count = index + 1
        self._pending += 1
        self._maybe_spill()
        return index

    def item_at(self, index: int):
        """The payload logged at ``index`` (resident, buffered or on disk)."""
        if not self._spilled:
            return self._items[index]
        # The write buffer holds the newest entries; scan it before disk.
        for pending_index, blob in reversed(self._pending_items):
            if pending_index == index:
                return _decode(blob)
        row = self._log_db.execute(
            "SELECT payload FROM items WHERE idx = ?", (index,)
        ).fetchone()
        if row is None:
            raise IndexError(f"no item logged at index {index}")
        return _decode(row[0])

    def items_range(self, start: int, stop: int) -> Iterator:
        """Iterate payloads ``start <= idx < stop`` in index order (chunked)."""
        if not self._spilled:
            yield from self._items[start:stop]
            return
        self.flush()
        cursor = start
        while cursor < stop:
            upper = min(stop, cursor + _READ_CHUNK)
            rows = self._log_db.execute(
                "SELECT payload FROM items WHERE idx >= ? AND idx < ? ORDER BY idx",
                (cursor, upper),
            ).fetchall()
            for (blob,) in rows:
                yield _decode(blob)
            cursor = upper

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def item_count(self) -> int:
        """Number of payloads appended to the FIFO log."""
        return self._item_count

    @property
    def spilled(self) -> bool:
        """True once the working set has moved to disk."""
        return self._spilled

    def spill_bytes(self) -> int:
        """Total bytes of the on-disk spool files (0 before spilling)."""
        if not self._spilled or self.path is None:
            return 0
        total = 0
        for name in os.listdir(self.path):
            try:
                total += os.path.getsize(os.path.join(self.path, name))
            except OSError:  # pragma: no cover - file vanished mid-listing
                pass
        return total

    def stats(self) -> dict:
        """Flat telemetry dict (for ``--stats`` and ``build_stats()``)."""
        return {
            "states": self._count,
            "items": self._item_count,
            "spilled": self._spilled,
            "resident_states": len(self._index_of) + len(self._items),
            "spill_bytes": self.spill_bytes(),
            "spill_threshold": self.spill_threshold,
            "shards": self.shards,
            "path": self.path if self._spilled else None,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush, close the SQLite connections and drop owned spool files."""
        if self._closed:
            return
        self._closed = True
        if self._spilled:
            self.flush()
            for db in self._shard_dbs:
                if db is not None:
                    db.close()
            if self._log_db is not None:
                self._log_db.close()
            if self._owns_path and self.path is not None:
                shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "DiskStateStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def resolve_store(store, *, spill_threshold=None):
    """Normalize a public ``store=`` argument into ``(store, owned)``.

    ``store`` may be ``None`` (no spilling — the historical in-memory path),
    the literal string ``"disk"`` (build a :class:`DiskStateStore`; a
    ``spill_threshold`` of ``None`` here keeps the store's default), or an
    existing :class:`DiskStateStore`.  ``owned`` tells the caller whether it
    must close the store when the build finishes.
    """
    if store is None:
        return None, False
    if isinstance(store, DiskStateStore):
        return store, False
    if store == "disk":
        kwargs = {}
        if spill_threshold is not None:
            kwargs["spill_threshold"] = spill_threshold
        return DiskStateStore(**kwargs), True
    raise ValueError(
        f"store must be None, 'disk' or a DiskStateStore instance, got {store!r}"
    )


__all__ = [
    "DEFAULT_SHARDS",
    "DEFAULT_SPILL_THRESHOLD",
    "RETRY_ATTEMPTS",
    "RETRY_BASE_DELAY",
    "DiskStateStore",
    "locked_retry",
    "resolve_store",
    "shard_of",
]
