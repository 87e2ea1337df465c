"""Constraint-driven comparison of symbolic time expressions.

The heart of the symbolic reachability construction (Section 3 of the paper)
is replacing "take the smallest non-zero RET/RFT" by "prove, from the
declared timing constraints, which expression is smallest".  The
:class:`SymbolicComparator` packages that decision procedure:

* sign classification of an expression (zero / positive / unknown),
* provable ``<=`` / ``==`` between two expressions,
* selection of the provable minimum of a set of expressions, together with
  the entries that are provably *equal* to the minimum (transitions finishing
  simultaneously) and the labels of the declared constraints that were needed
  — the bookkeeping that reproduces the paper's Figure 7.

When the declared constraints are not strong enough to resolve a needed
comparison the comparator raises
:class:`~repro.exceptions.InsufficientConstraintsError` carrying the
offending expressions, which is exactly the "prompt the designer for the
missing timing constraint" interaction the paper envisions for an automated
tool.

All queries are memoized: reachability graphs ask the same handful of
comparisons over and over.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import InsufficientConstraintsError
from .constraints import Constraint, ConstraintSet
from .linexpr import ExprLike, LinExpr, as_expr

SIGN_ZERO = "zero"
SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"

#: Default LRU bound of the per-comparator Fourier–Motzkin entailment cache.
#: Generous on purpose — a symbolic TRG asks the same handful of comparisons
#: over and over, so evictions should only ever happen in long-running
#: services churning through many unrelated constraint systems.  Pass
#: ``cache_limit=`` to :class:`SymbolicComparator` to tighten or widen it.
DEFAULT_ENTAILMENT_CACHE_LIMIT = 65_536


@dataclass(frozen=True)
class MinimumResult:
    """Result of a symbolic minimum computation.

    Attributes
    ----------
    minimum:
        The expression proven to be the smallest.
    minimal_keys:
        The keys whose expression is provably equal to the minimum (at least
        one; several when transitions finish simultaneously).
    used_constraints:
        Labels of the declared constraints needed for the proof, in label
        order and without duplicates (implicit non-negativity constraints are
        never listed).
    """

    minimum: LinExpr
    minimal_keys: Tuple[Hashable, ...]
    used_constraints: Tuple[str, ...]


class SymbolicComparator:
    """Decide orderings of linear time expressions under a constraint set."""

    def __init__(self, constraints: ConstraintSet, *, cache_limit: Optional[int] = None):
        self.constraints = constraints
        self._cache_limit = (
            DEFAULT_ENTAILMENT_CACHE_LIMIT if cache_limit is None else cache_limit
        )
        if self._cache_limit < 1:
            raise ValueError("cache_limit must be a positive integer")
        self._entailment_cache: "OrderedDict[Tuple[LinExpr, str], Tuple[bool, Tuple[str, ...]]]" = (
            OrderedDict()
        )
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    # ------------------------------------------------------------------
    # Primitive entailment queries (cached)
    # ------------------------------------------------------------------

    def _entails(self, expression: LinExpr, relation: str) -> Tuple[bool, Tuple[str, ...]]:
        """Does the constraint set entail ``expression REL 0``?  Returns (holds, support)."""
        # Interning the expression makes the cache probe an identity hit for
        # every recurring query (and the cached-key hash is reused for free).
        expression = expression.interned()
        key = (expression, relation)
        cache = self._entailment_cache
        cached = cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            cache.move_to_end(key)
            return cached
        self._cache_misses += 1
        # Constant fast path avoids Fourier–Motzkin entirely.
        if expression.is_constant():
            value = expression.constant_value()
            if relation == ">=":
                holds = value >= 0
            elif relation == ">":
                holds = value > 0
            else:
                holds = value == 0
            result = (holds, ())
        else:
            query = Constraint(expression, relation)
            result = self.constraints.entails_with_support(query)
        cache[key] = result
        if len(cache) > self._cache_limit:
            cache.popitem(last=False)
            self._cache_evictions += 1
        return result

    # ------------------------------------------------------------------
    # Sign and pairwise comparisons
    # ------------------------------------------------------------------

    def is_nonnegative(self, value: ExprLike) -> bool:
        """Provably ``value >= 0``."""
        return self._entails(as_expr(value), ">=")[0]

    def is_positive(self, value: ExprLike) -> bool:
        """Provably ``value > 0``."""
        return self._entails(as_expr(value), ">")[0]

    def is_zero(self, value: ExprLike) -> bool:
        """Provably ``value == 0`` (syntactic zero short-circuits)."""
        expression = as_expr(value)
        if expression.is_zero():
            return True
        return self._entails(expression, "==")[0]

    def sign(self, value: ExprLike) -> str:
        """Classify an expression as zero, positive or negative under the constraints.

        Raises :class:`InsufficientConstraintsError` when none of the three
        can be proven — the declared constraints leave the sign open.
        """
        expression = as_expr(value)
        if self.is_zero(expression):
            return SIGN_ZERO
        if self.is_positive(expression):
            return SIGN_POSITIVE
        if self._entails(-expression, ">")[0]:
            return SIGN_NEGATIVE
        raise InsufficientConstraintsError(
            f"the declared timing constraints do not determine the sign of {expression}",
            expressions=(expression,),
        )

    def less_equal(self, left: ExprLike, right: ExprLike) -> Tuple[bool, Tuple[str, ...]]:
        """Provably ``left <= right``; returns (holds, supporting constraint labels)."""
        return self._entails(as_expr(right) - as_expr(left), ">=")

    def strictly_less(self, left: ExprLike, right: ExprLike) -> Tuple[bool, Tuple[str, ...]]:
        """Provably ``left < right``; returns (holds, supporting constraint labels)."""
        return self._entails(as_expr(right) - as_expr(left), ">")

    def equal(self, left: ExprLike, right: ExprLike) -> Tuple[bool, Tuple[str, ...]]:
        """Provably ``left == right``; returns (holds, supporting constraint labels)."""
        difference = as_expr(left) - as_expr(right)
        if difference.is_zero():
            return True, ()
        return self._entails(difference, "==")

    def compare(self, left: ExprLike, right: ExprLike) -> Optional[str]:
        """Return ``"<"``, ``"=="`` or ``">"`` when provable, else ``None``."""
        if self.equal(left, right)[0]:
            return "=="
        if self.strictly_less(left, right)[0]:
            return "<"
        if self.strictly_less(right, left)[0]:
            return ">"
        return None

    # ------------------------------------------------------------------
    # Minimum selection
    # ------------------------------------------------------------------

    def minimum_of(self, entries: Mapping[Hashable, ExprLike] | Sequence[Tuple[Hashable, ExprLike]]) -> MinimumResult:
        """Find the provably smallest expression among ``entries``.

        ``entries`` maps arbitrary keys (transition names in practice) to
        expressions.  The result reports which expression is minimal, which
        keys attain it, and which declared constraints were needed.

        Raises
        ------
        InsufficientConstraintsError
            When no entry can be proven ``<=`` all the others.  The error's
            ``expressions`` attribute holds the pair(s) whose order could not
            be resolved, so interactive callers can ask for the missing
            constraint specifically.
        ValueError
            When ``entries`` is empty.
        """
        items: List[Tuple[Hashable, LinExpr]] = [
            (key, as_expr(value).interned())
            for key, value in (entries.items() if isinstance(entries, Mapping) else entries)
        ]
        if not items:
            raise ValueError("minimum_of() requires at least one entry")

        # Deduplicate syntactically identical expressions to cut down on queries.
        distinct: List[LinExpr] = []
        for _, expression in items:
            if expression not in distinct:
                distinct.append(expression)

        used: List[str] = []
        winner: Optional[LinExpr] = None
        #: Per failed candidate, the first expression it could not be proven
        #: ``<=`` against — the raw material for the failure diagnosis.
        blocked: List[Tuple[LinExpr, LinExpr]] = []
        for candidate in distinct:
            is_minimal = True
            candidate_support: List[str] = []
            for other in distinct:
                if other is candidate or other == candidate:
                    continue
                holds, support = self.less_equal(candidate, other)
                if not holds:
                    is_minimal = False
                    blocked.append((candidate, other))
                    break
                candidate_support.extend(support)
            if is_minimal:
                winner = candidate
                used.extend(candidate_support)
                break
        if winner is None:
            # A blocking pair is only a useful hint when it is *genuinely*
            # undecidable: ``candidate <= other`` failing is also what happens
            # when the reverse order is provable (the candidate simply is not
            # the minimum).  Keep the pairs where neither direction is
            # provable — the missing constraints the designer must supply.
            # At least one exists whenever no winner does (a fully decided
            # comparison relation is a total preorder and therefore has a
            # minimum), but fall back to the raw blocking pairs defensively.
            undecidable: List[Tuple[LinExpr, LinExpr]] = []
            for candidate, other in blocked:
                if (other, candidate) in undecidable:
                    continue  # the mirrored pair is the same missing fact
                if (
                    not self.less_equal(candidate, other)[0]
                    and not self.less_equal(other, candidate)[0]
                ):
                    undecidable.append((candidate, other))
            pairs = undecidable or blocked
            expressions: List[LinExpr] = []
            for candidate, other in pairs:
                for expression in (candidate, other):
                    if expression not in expressions:
                        expressions.append(expression)
            detail = "; ".join(f"{a} vs {b}" for a, b in pairs)
            raise InsufficientConstraintsError(
                "the declared timing constraints do not determine which of the "
                f"expressions {', '.join(str(e) for e in distinct)} is smallest "
                f"(unresolved: {detail})",
                expressions=tuple(expressions),
            )

        minimal_keys: List[Hashable] = []
        for key, expression in items:
            if expression == winner:
                minimal_keys.append(key)
                continue
            holds, support = self.equal(expression, winner)
            if holds:
                minimal_keys.append(key)
                used.extend(support)

        ordered_support = tuple(sorted(set(used), key=_label_sort_key))
        return MinimumResult(winner, tuple(minimal_keys), ordered_support)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def assert_positive(self, value: ExprLike, *, context: str = "") -> Tuple[str, ...]:
        """Prove ``value > 0`` and return the supporting constraint labels.

        Used by the symbolic successor procedure to confirm that every
        non-zero RET/RFT entry really is positive before it participates in a
        minimum computation.
        """
        expression = as_expr(value)
        holds, support = self._entails(expression, ">")
        if holds:
            return support
        raise InsufficientConstraintsError(
            (f"{context}: " if context else "")
            + f"cannot prove that {expression} is positive from the declared constraints",
            expressions=(expression,),
        )

    def cache_size(self) -> int:
        """Number of memoized entailment queries (for diagnostics and tests)."""
        return len(self._entailment_cache)

    def cache_stats(self) -> Dict[str, float]:
        """Hit/miss/eviction counters of the LRU-bounded entailment cache."""
        lookups = self._cache_hits + self._cache_misses
        return {
            "size": len(self._entailment_cache),
            "max_size": self._cache_limit,
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "evictions": self._cache_evictions,
            "hit_rate": (self._cache_hits / lookups) if lookups else 0.0,
        }


def _label_sort_key(label: str):
    """Sort numeric labels numerically, then everything else lexicographically."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)
