"""Telemetry and lifecycle for the symbolic hash-consing (intern) tables.

:class:`~repro.symbolic.symbols.Symbol` has always been interned;
:class:`~repro.symbolic.linexpr.LinExpr`,
:class:`~repro.symbolic.polynomial.Polynomial` and
:class:`~repro.symbolic.ratfunc.RatFunc` intern *on demand* through their
``interned()`` methods (and automatically on unpickling, so expressions
read back from the artifact codec or the cache's disk tier dedup against
local instances by identity).  Interning is advisory — structural equality
is never replaced — but interned instances turn every dictionary probe into
an identity hit and carry cached hashes, which is what the symbolic
comparator's memo tables lean on.

This module is the one place that sees all four tables: it reports their
sizes, hit rates and evictions (:func:`intern_stats`), rebounds the
expression tables (:func:`set_intern_table_limit`) and clears them
(:func:`clear_intern_tables`) for long-running services and tests.  The
expression tables are **LRU-bounded** (generous default) so that interning —
which the comparator's entailment path drives automatically — can never
grow memory without limit; evicting a canonical instance is harmless
because interning is advisory: the evicted instance stays valid wherever
referenced, and later structurally equal expressions simply elect a new
canonical (only the identity fast path is lost for that content).

The :class:`Symbol` table is deliberately *not* bounded or clearable: symbol
identity is a library-wide invariant (expressions key their term
dictionaries on it), so evicting symbols while expressions referencing them
are alive would break identity assumptions; the table is bounded by the
number of distinct symbol names a process ever creates, which is tiny in
practice.
"""

from __future__ import annotations

from typing import Dict

from .linexpr import LinExpr
from .polynomial import Polynomial
from .ratfunc import RatFunc
from .symbols import Symbol

_EXPRESSION_CLASSES = (LinExpr, Polynomial, RatFunc)


def _class_stats(cls, bounded: bool = True) -> Dict[str, float]:
    lookups = cls._intern_hits + cls._intern_misses
    stats = {
        "size": len(cls._interned),
        "hits": cls._intern_hits,
        "misses": cls._intern_misses,
        "hit_rate": (cls._intern_hits / lookups) if lookups else 0.0,
    }
    if bounded:
        stats["max_size"] = cls._intern_limit
        stats["evictions"] = cls._intern_evictions
    return stats


def intern_stats() -> Dict[str, Dict[str, float]]:
    """Size, hit/miss and (for the bounded tables) eviction counters."""
    return {
        "symbol": _class_stats(Symbol, bounded=False),
        "linexpr": _class_stats(LinExpr),
        "polynomial": _class_stats(Polynomial),
        "ratfunc": _class_stats(RatFunc),
    }


def set_intern_table_limit(max_size: int) -> None:
    """Rebound the three expression intern tables (evicting LRU overflow)."""
    if not isinstance(max_size, int) or isinstance(max_size, bool) or max_size < 1:
        raise ValueError(f"intern table limit must be a positive integer, got {max_size!r}")
    for cls in _EXPRESSION_CLASSES:
        cls._intern_limit = max_size
        while len(cls._interned) > max_size:
            cls._interned.popitem(last=False)
            cls._intern_evictions += 1


def clear_intern_tables() -> None:
    """Reset the expression intern tables (LinExpr/Polynomial/RatFunc).

    Safe at any time: existing instances stay valid (equality is structural),
    later interns simply elect new canonical instances — a previously
    canonical instance keeps returning itself from ``interned()``, which is
    sound for the same advisory reason evictions are.  Symbol interning is
    preserved — see the module docstring for why.
    """
    for cls in _EXPRESSION_CLASSES:
        cls._interned.clear()
        cls._intern_hits = 0
        cls._intern_misses = 0
        cls._intern_evictions = 0
    Symbol._intern_hits = 0
    Symbol._intern_misses = 0


__all__ = ["clear_intern_tables", "intern_stats", "set_intern_table_limit"]
