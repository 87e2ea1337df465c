"""Deterministic fault injection for the execution layer.

The robustness machinery — checkpoints/resume in :mod:`repro.engine.runtime`,
the locked-retry path in :mod:`repro.engine.store` — only earns its keep if
failures can be produced on demand, at exact points, repeatably.  This module
is that switchboard:

* :class:`FaultPlan` — a description of *which* faults fire and *when*:
  crash the build at expansion ``k`` (simulating a process kill), raise on
  the Nth store write (transiently, as a SQLite "database is locked"
  ``OperationalError`` consumed by the store's retry loop, or terminally).
* :func:`inject` / :func:`install` / :func:`clear` — process-global plan
  installation.  The hooks compile to a single module-global ``None`` check
  when no plan is active, so production builds pay nothing.
* :class:`SteppingClock` — a deterministic clock for
  :class:`~repro.engine.runtime.RunControl` deadlines: each reading advances
  by a fixed step, so "deadline expires after exactly N control checks" is
  reproducible on any machine, however fast.

The test suite and the CI fault-injection step drive everything here; the
module itself never fires a fault unless a plan was installed.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from typing import Optional


class InjectedFailure(Exception):
    """The failure raised by a non-transient injected fault.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: library
    ``except ReproError`` handlers must not swallow an injected crash, the
    same way they could not swallow a real ``SIGKILL``.
    """


class FaultPlan:
    """A schedule of injected failures.

    Parameters
    ----------
    crash_at_expansion:
        Raise :class:`InjectedFailure` when the frontier loop is about to
        expand item ``k`` (scalar loops) or finish the level containing it
        (batched loops).  Simulates a process kill mid-build: no final
        checkpoint is written, only periodic ones survive.
    locked_writes:
        The first ``n`` store write transactions raise
        ``sqlite3.OperationalError("database is locked")`` — the transient
        condition the store's bounded-backoff retry consumes.
    broken_write_at:
        The ``n``-th store write transaction (1-based, counted after the
        transient ones) raises a non-transient
        ``sqlite3.OperationalError``, which must surface as a
        :class:`~repro.exceptions.StoreError`.
    """

    def __init__(
        self,
        *,
        crash_at_expansion: Optional[int] = None,
        locked_writes: int = 0,
        broken_write_at: Optional[int] = None,
    ):
        self.crash_at_expansion = crash_at_expansion
        self.locked_writes = locked_writes
        self.broken_write_at = broken_write_at
        self._writes_seen = 0

    # -- hook implementations (called through the module-level guards) ---

    def expansion(self, cursor: int) -> None:
        """Fired by the frontier loops before expanding item ``cursor``."""
        if self.crash_at_expansion is not None and cursor >= self.crash_at_expansion:
            raise InjectedFailure(
                f"injected crash at expansion {cursor} "
                f"(scheduled at {self.crash_at_expansion})"
            )

    def store_write(self) -> None:
        """Fired by the store inside each (retried) write transaction."""
        self._writes_seen += 1
        if self._writes_seen <= self.locked_writes:
            raise sqlite3.OperationalError("database is locked")
        if (
            self.broken_write_at is not None
            and self._writes_seen - self.locked_writes == self.broken_write_at
        ):
            raise sqlite3.OperationalError("injected non-transient write failure")


#: The active plan, or ``None``.  Hooks check this one global first so the
#: disabled case costs a single attribute load.
_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` process-globally (``None`` disables injection)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Remove any installed plan."""
    install(None)


@contextmanager
def inject(plan: FaultPlan):
    """Context manager: install ``plan`` for the duration of the block."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


# -- hot-path hooks ----------------------------------------------------------


def on_expansion(cursor: int) -> None:
    """Frontier-loop hook (scalar expansions and batched level boundaries)."""
    if _PLAN is not None:
        _PLAN.expansion(cursor)


def on_store_write() -> None:
    """Store write-transaction hook (inside the retry loop)."""
    if _PLAN is not None:
        _PLAN.store_write()


class SteppingClock:
    """A deterministic monotonic clock: each reading advances by ``step``.

    Passed as ``RunControl(clock=...)`` so deadline expiry happens after an
    exact number of control checks instead of a wall-clock race — "deadline
    expires mid-level" becomes a reproducible test case.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self._now = float(start)
        self.step = float(step)

    def __call__(self) -> float:
        now = self._now
        self._now = now + self.step
        return now


__all__ = [
    "FaultPlan",
    "InjectedFailure",
    "SteppingClock",
    "clear",
    "inject",
    "install",
    "on_expansion",
    "on_store_write",
]
