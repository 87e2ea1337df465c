"""The shared compiled-engine core: net tables, frontier loop and builders.

Every graph construction in this library walks the same hot loop: test which
transitions a marking enables, fire one, and deduplicate the successor.  The
readable implementations (:mod:`repro.reachability.successors`,
:mod:`repro.petri.untimed`, :mod:`repro.stochastic.gspn`) resolve arcs by
place *name* and rescan the full transition list per marking — the exact
bottleneck the paper's successor procedure exists to avoid.

The package layers that loop once instead of five times:

* :class:`~repro.engine.tables.NetTables` — place/transition integer ids,
  input/output arc lists, per-transition token deltas, conflict-set group
  indices, *incremental* enabled-set maintenance over plain ``int`` tuples,
  and the lazy dense incidence matrices (``input_matrix``/``delta_matrix``)
  the batched kernel broadcasts over;
* :mod:`repro.engine.frontier` — the **shared frontier-exploration core**:
  the generic ``explore(kernel, intern, on_edge, limits)`` FIFO loop, the
  per-semantics kernel protocol (``UntimedKernel``, ``GSPNKernel``,
  ``TimedKernel``), the shared ``max_states`` valves and the
  ``FrontierStats`` telemetry surfaced by the builders' ``build_stats()``.
  Every scalar builder below — including Karp–Miller coverability —
  runs through this one loop;
* :func:`~repro.engine.untimed.compiled_reachability_graph`,
  :func:`~repro.engine.untimed.compiled_coverability_graph` and
  :func:`~repro.engine.gspn.compiled_marking_graph` — the scalar compiled
  backends (``engine="compiled"``), each a kernel + intern/edge adapter
  over the shared loop;
* :mod:`repro.engine.batched` — the numpy **level-batched** kernel
  (``engine="batched"`` for untimed reachability and the GSPN marking
  graph): whole frontiers expand as a ``(frontier × transitions)``
  enabledness mask with vectorized marking updates and packed-key dedup;
* :mod:`repro.engine.store` — the **disk-backed state store**
  (``store="disk"``, ``spill_threshold=N``): the frontier-core engines
  spill their dedup index and item log (and the batched kernel its dense
  state matrix) into SQLite shards once the interned-state count crosses a
  threshold, so full builds continue past RAM with bounded resident memory
  and bit-identical results;
* :mod:`repro.engine.query` — **early-terminating queries**
  (``is_reachable``, ``bound_check``, ``find_deadlock``, predicate
  ``search``) that drive the same frontier loop with a stop predicate:
  first witness in BFS order, a replayable firing path, no full graph;
* :mod:`repro.engine.runtime` — **robust execution**: ``RunControl``
  (deadline, cooperative cancellation, progress, ``checkpoint_every``)
  threaded through the frontier loop and every store-capable builder,
  durable :class:`~repro.engine.runtime.Checkpoint` directories, and
  :func:`~repro.engine.runtime.resume` which completes an interrupted
  build bit-identically by re-entering the builder that wrote the
  checkpoint at its saved cursor (every builder above takes
  ``resume_from=``);
* :mod:`repro.engine.faults` — the **fault-injection** hooks the
  robustness tests (and the CI fault-injection step) drive: crash at the
  Nth expansion, transient/broken store writes, a stepping clock for
  deterministic deadline expiry.

Each public builder that uses this engine keeps an ``engine="reference"``
escape hatch and is required (by ``tests/test_engine_diff.py`` and
``tests/engine_diff.py``) to produce **bit-identical** graphs to the readable
implementation through every engine value: same node order, same edge order,
same labels, rates and weights.
"""

from typing import Optional, Sequence

from .batched import batched_marking_graph, batched_reachability_graph
from .frontier import FrontierStats, explore
from .gspn import compiled_marking_graph
from .query import QueryResult, bound_check, find_deadlock, is_reachable, search
from .runtime import (
    CancellationToken,
    Checkpoint,
    Progress,
    RunControl,
    cancel_on_sigint,
    resume,
)
from .store import DiskStateStore, resolve_store
from .tables import NetTables, clear_shared_tables, tables_cache_stats
from .untimed import compiled_coverability_graph, compiled_reachability_graph

#: Engine selection values shared by every builder with a compiled backend.
ENGINE_COMPILED = "compiled"
ENGINE_REFERENCE = "reference"
ENGINE_BATCHED = "batched"
ENGINES = (ENGINE_COMPILED, ENGINE_REFERENCE, ENGINE_BATCHED)
#: The one-state-at-a-time engines every builder supports.  Builders without
#: a batched backend (Karp–Miller coverability and the timed builders) pass
#: this as ``supported=`` so an ``engine="batched"`` request fails with a
#: precise message instead of a silent fallback.
SCALAR_ENGINES = (ENGINE_COMPILED, ENGINE_REFERENCE)

#: Call-site hint appended when the coverability builder rejects
#: ``engine="batched"``: the Karp–Miller acceleration rule inspects the
#: BFS-tree ancestor chain of each work vector — per-path history the
#: level-batched mask cannot carry.
COVERABILITY_UNSUPPORTED_REASON = (
    "the Karp–Miller acceleration rule walks the BFS-tree ancestor chain "
    "of each work vector, which the level-batched kernel cannot carry"
)

#: Call-site hint appended when a timed builder rejects ``engine="batched"``:
#: the level-batched kernel expands frontiers of plain token vectors through
#: a ``(frontier × transitions)`` enabledness mask; timed states carry
#: per-state clock vectors the mask cannot represent.
BATCHED_UNSUPPORTED_REASON = (
    "the batched kernel expands whole frontiers of plain token vectors; "
    "timed states carry per-state clock vectors the "
    "(frontier x transitions) enabledness mask cannot represent, so the "
    "timed builders support the scalar engines only"
)


def check_engine(
    engine: str, *, supported: Optional[Sequence[str]] = None, reason: str = ""
) -> None:
    """Validate an ``engine=`` argument, raising ``ValueError`` otherwise.

    ``supported`` restricts the accepted values for builders that do not
    implement every engine (the default accepts all of :data:`ENGINES`);
    ``reason`` is an optional caller-supplied explanation appended to the
    rejection message.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(map(repr, ENGINES))}"
        )
    if supported is not None and engine not in supported:
        raise ValueError(
            f"engine {engine!r} is not supported by this builder; expected one of "
            f"{', '.join(map(repr, supported))}" + (f" ({reason})" if reason else "")
        )

__all__ = [
    "BATCHED_UNSUPPORTED_REASON",
    "COVERABILITY_UNSUPPORTED_REASON",
    "ENGINE_BATCHED",
    "ENGINE_COMPILED",
    "ENGINE_REFERENCE",
    "ENGINES",
    "SCALAR_ENGINES",
    "CancellationToken",
    "Checkpoint",
    "DiskStateStore",
    "FrontierStats",
    "NetTables",
    "Progress",
    "QueryResult",
    "RunControl",
    "batched_marking_graph",
    "batched_reachability_graph",
    "bound_check",
    "cancel_on_sigint",
    "check_engine",
    "clear_shared_tables",
    "compiled_coverability_graph",
    "compiled_marking_graph",
    "compiled_reachability_graph",
    "explore",
    "find_deadlock",
    "is_reachable",
    "resolve_store",
    "resume",
    "search",
    "tables_cache_stats",
]
