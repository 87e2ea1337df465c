"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so callers can catch library errors without catching
programming errors (``TypeError``, ``KeyError`` and friends are still used for
plain misuse of the API, mirroring normal Python conventions).

The hierarchy mirrors the subsystems described in ``DESIGN.md``:

* model definition errors (:class:`NetDefinitionError`, :class:`ConflictSetError`)
* analysis errors on the timed reachability graph
  (:class:`ReachabilityError`, :class:`UnboundedNetError`)
* symbolic-engine errors (:class:`SymbolicError`,
  :class:`InsufficientConstraintsError`, :class:`InconsistentConstraintsError`)
* performance-derivation errors (:class:`PerformanceError`)
* simulation errors (:class:`SimulationError`)
* execution-robustness errors (:class:`BuildInterruptedError`,
  :class:`StoreError`, :class:`StoreCorruptionError`)
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Model definition
# ---------------------------------------------------------------------------


class NetDefinitionError(ReproError):
    """The Petri net definition is structurally invalid.

    Raised, for example, when a transition references an unknown place, when a
    duplicate place or transition name is added, or when an enabling or firing
    time is negative.
    """


class ConflictSetError(NetDefinitionError):
    """The conflict-set specification violates the paper's requirements.

    The model of the paper requires the transitions of a net to be partitioned
    into *disjoint* conflict sets; two transitions that share an input place
    must belong to the same set, and every transition in a set that can be
    chosen must have a non-negative relative firing frequency.
    """


class MarkingError(NetDefinitionError):
    """A marking is inconsistent with the net (unknown place, negative count)."""


# ---------------------------------------------------------------------------
# Reachability / timed analysis
# ---------------------------------------------------------------------------


class ReachabilityError(ReproError):
    """Base class for errors during (timed) reachability analysis."""


class UnboundedNetError(ReachabilityError):
    """The state space exceeded the configured bound.

    Timed reachability graphs are only finite for bounded nets; the explorer
    raises this error when the number of generated states exceeds the
    ``max_states`` safety limit, or when coverability analysis proves the net
    unbounded.
    """


class SafenessViolationError(ReachabilityError):
    """A transition would fire while already firing (multiple simultaneous firings).

    The paper restricts attention to nets in which at most one firing of each
    transition is in progress at any instant (a relaxation of T-safeness).
    """


class NonDeterministicTimeError(ReachabilityError):
    """A non-decision state has more than one successor.

    For the analysis of Section 2/3 of the paper to apply, every state that is
    not a decision state must have exactly one successor.  This error signals
    a model (or an insufficiently constrained symbolic model) violating that
    property.
    """


# ---------------------------------------------------------------------------
# Symbolic engine
# ---------------------------------------------------------------------------


class SymbolicError(ReproError):
    """Base class for errors raised by :mod:`repro.symbolic`."""


class InsufficientConstraintsError(SymbolicError):
    """The declared timing constraints do not determine a needed ordering.

    The paper notes that "the model must include sufficient timing constraints
    to guarantee that all vertices which do not involve decisions have at most
    one successor each" and suggests that an automated tool could prompt the
    designer for the missing constraints.  This error carries the pair (or
    set) of expressions whose ordering could not be decided so that a caller
    or an interactive tool can ask for exactly the missing fact.
    """

    def __init__(self, message: str, *, expressions: tuple = ()):  # type: ignore[type-arg]
        super().__init__(message)
        #: The expressions whose relative order could not be established.
        self.expressions = tuple(expressions)


class InconsistentConstraintsError(SymbolicError):
    """The declared timing constraints are mutually contradictory."""


class ExpressionDomainError(SymbolicError):
    """An operation left the supported expression domain (e.g. division by zero)."""


# ---------------------------------------------------------------------------
# Performance derivation
# ---------------------------------------------------------------------------


class PerformanceError(ReproError):
    """Base class for errors during performance-expression derivation."""


class NotErgodicError(PerformanceError):
    """The decision graph is not strongly connected / has no stationary cycle.

    Traversal-rate analysis (and the embedded-Markov-chain cross check) assume
    the collapsed decision graph is a single recurrent class.
    """


class NoDecisionNodeError(PerformanceError):
    """The timed reachability graph contains no decision node.

    A purely deterministic net has a single cycle; the library handles this by
    treating the whole cycle as one pseudo edge, but some operations (e.g.
    branching-probability queries) are meaningless and raise this error.
    """


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulator."""


class DeadlockError(SimulationError):
    """The simulated net reached a dead marking before the requested horizon."""


# ---------------------------------------------------------------------------
# Robust execution (checkpoints, durable stores)
# ---------------------------------------------------------------------------


class BuildInterruptedError(ReproError):
    """A graph construction stopped before completion (deadline/cancellation).

    Raised by the store-capable builders when a
    :class:`~repro.engine.runtime.RunControl` deadline expires or its
    cancellation token fires mid-build.  When the control was configured
    with a ``checkpoint_dir``, :attr:`checkpoint` carries the
    :class:`~repro.engine.runtime.Checkpoint` handle written on the way
    out, and :func:`repro.engine.runtime.resume` completes the build
    bit-identically to an uninterrupted run; otherwise it is ``None``.
    """

    def __init__(self, message: str, *, checkpoint=None, reason: str = "cancelled"):
        super().__init__(message)
        #: The resumable checkpoint handle, or ``None`` when no
        #: ``checkpoint_dir`` was configured (or the build is not resumable,
        #: e.g. a predicate ``search`` query).
        self.checkpoint = checkpoint
        #: Why the build stopped: ``"deadline"`` or the cancellation reason.
        self.reason = reason


class StoreError(ReproError):
    """A durable state store operation failed permanently.

    Transient SQLite ``OperationalError`` conditions ("database is locked")
    are retried with exponential backoff; this error surfaces only once the
    retry budget is exhausted or the failure is not transient.
    """


class StoreCorruptionError(StoreError):
    """A spool directory failed its reopen integrity probe.

    :attr:`shard` names the offending file (a dedup shard database or the
    FIFO ``log.db``) so operators know exactly what to restore or discard.
    """

    def __init__(self, message: str, *, shard: str = ""):
        super().__init__(message)
        #: File name of the shard (or log) database that failed the probe.
        self.shard = shard
