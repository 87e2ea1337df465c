"""Affine (linear) expressions over symbols with exact rational coefficients.

Timed reachability analysis manipulates *times*: remaining enabling times,
remaining firing times and accumulated path delays.  In the numeric setting
these are plain rationals; in the symbolic setting of Section 3 of the paper
they are affine combinations of enabling/firing-time symbols, e.g.
``E3 - F4 - F6``.  :class:`LinExpr` implements exactly that domain:

``expr = constant + sum_i coefficient_i * symbol_i``

with ``fractions.Fraction`` coefficients, closed under addition, subtraction
and scaling by rationals.  Expressions are immutable, hashable (so they can
participate in timed-state identity) and render themselves in the compact
style used by the paper's figures.

The module also provides :func:`as_expr` / :func:`as_fraction`, the two
coercion helpers used throughout the library to accept "any reasonable
number" (int, float, str, Fraction, Symbol, LinExpr) at API boundaries while
keeping all internal arithmetic exact.  Floats are converted through their
shortest decimal representation (``repr``), so the paper's ``106.7`` becomes
exactly ``1067/10`` rather than the binary-float approximation.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, Mapping, Tuple, Union

from ..exceptions import ExpressionDomainError
from .symbols import Symbol

NumberLike = Union[int, float, str, Fraction]
ExprLike = Union["LinExpr", Symbol, NumberLike]


def as_fraction(value: NumberLike) -> Fraction:
    """Convert a number-like value to an exact :class:`~fractions.Fraction`.

    Floats are interpreted through their decimal ``repr`` so that values such
    as ``106.7`` or ``13.5`` round-trip to the exact decimals printed in the
    paper instead of their nearest binary floats.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid numeric values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ExpressionDomainError(f"cannot convert non-finite float {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {value!r} as an exact rational number")


class LinExpr:
    """An immutable affine expression ``constant + sum(coefficient * symbol)``.

    Instances support ``+``, ``-``, unary ``-`` and multiplication /
    division by rational constants.  Multiplying two non-constant
    expressions is *not* supported here (that is the job of
    :class:`repro.symbolic.polynomial.Polynomial`).
    """

    __slots__ = ("_terms", "_constant", "_hash", "_canonical")

    #: Hash-consing table of canonical instances keyed on the structural
    #: ``(sorted terms, constant)`` key.  Interning is *advisory* — equality
    #: stays structural — but interned instances make every dictionary probe
    #: an identity hit (dict lookup checks ``is`` before ``==``) and carry a
    #: cached hash, which is what the symbolic comparator's memo tables
    #: lean on.  The table is
    #: LRU-bounded (long-running services must not grow memory without
    #: limit); evicting a canonical instance is harmless because interning
    #: is advisory — the evicted instance stays valid wherever referenced and
    #: later structurally equal expressions simply elect a new canonical.
    _interned: "OrderedDict[tuple, LinExpr]" = OrderedDict()
    _intern_limit: int = 65_536
    _intern_hits: int = 0
    _intern_misses: int = 0
    _intern_evictions: int = 0

    def __init__(
        self,
        terms: Mapping[Symbol, NumberLike] | Iterable[Tuple[Symbol, NumberLike]] = (),
        constant: NumberLike = 0,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: Dict[Symbol, Fraction] = {}
        for symbol, coefficient in items:
            if not isinstance(symbol, Symbol):
                raise TypeError(f"expected Symbol keys, got {symbol!r}")
            value = as_fraction(coefficient)
            if value:
                accumulated = collected.get(symbol, Fraction(0)) + value
                if accumulated:
                    collected[symbol] = accumulated
                else:
                    collected.pop(symbol, None)
        self._terms: Dict[Symbol, Fraction] = collected
        self._constant: Fraction = as_fraction(constant)
        self._hash: int | None = None
        self._canonical: bool = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: NumberLike) -> "LinExpr":
        """An expression with no symbolic part."""
        return cls((), value)

    @classmethod
    def from_symbol(cls, symbol: Symbol, coefficient: NumberLike = 1) -> "LinExpr":
        """The expression ``coefficient * symbol``."""
        return cls({symbol: coefficient}, 0)

    @classmethod
    def zero(cls) -> "LinExpr":
        """The zero expression."""
        return _ZERO

    # ------------------------------------------------------------------
    # Hash consing
    # ------------------------------------------------------------------

    def interned(self) -> "LinExpr":
        """The canonical instance structurally equal to this expression.

        The first expression with a given ``(terms, constant)`` content
        becomes the canonical instance; later structurally equal expressions
        resolve to it.  Unpickling re-interns (see :meth:`__reduce__`), so
        expressions read back from a pickle dedup against local ones by
        identity.  An already-canonical instance returns itself without
        touching the table (the hot entailment path re-interns the same
        canonical entries constantly).
        """
        if self._canonical:
            LinExpr._intern_hits += 1
            return self
        key = (self.sorted_terms(), self._constant)
        table = LinExpr._interned
        canonical = table.get(key)
        if canonical is None:
            LinExpr._intern_misses += 1
            table[key] = canonical = self
            self._canonical = True
            if len(table) > LinExpr._intern_limit:
                table.popitem(last=False)
                LinExpr._intern_evictions += 1
        else:
            LinExpr._intern_hits += 1
            table.move_to_end(key)
        return canonical

    def __reduce__(self):
        # Rebuild through the intern table: the unpickled expression is the
        # canonical local instance (symbols re-intern the same way), and the
        # process-local cached hash is never shipped.
        return (_reintern_expr, (self.sorted_terms(), self._constant))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def terms(self) -> Dict[Symbol, Fraction]:
        """A copy of the ``{symbol: coefficient}`` mapping (non-zero entries only)."""
        return dict(self._terms)

    @property
    def constant_term(self) -> Fraction:
        """The constant part of the expression."""
        return self._constant

    def coefficient(self, symbol: Symbol) -> Fraction:
        """Coefficient of ``symbol`` (zero when absent)."""
        return self._terms.get(symbol, Fraction(0))

    def symbols(self) -> frozenset:
        """The symbols appearing with non-zero coefficient."""
        return frozenset(self._terms)

    def is_constant(self) -> bool:
        """True when the expression contains no symbols."""
        return not self._terms

    def is_zero(self) -> bool:
        """True when the expression is identically zero."""
        return not self._terms and self._constant == 0

    def constant_value(self) -> Fraction:
        """Return the value of a constant expression; error if symbols remain."""
        if self._terms:
            raise ExpressionDomainError(f"expression {self} is not constant")
        return self._constant

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other: ExprLike) -> "LinExpr | None":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Symbol):
            return LinExpr.from_symbol(other)
        try:
            return LinExpr.constant(as_fraction(other))
        except (TypeError, ValueError):
            return None

    def __add__(self, other: ExprLike) -> "LinExpr":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        merged = dict(self._terms)
        for symbol, coefficient in coerced._terms.items():
            merged[symbol] = merged.get(symbol, Fraction(0)) + coefficient
        return LinExpr(merged, self._constant + coerced._constant)

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.__add__(-coerced)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced.__sub__(self)

    def __neg__(self) -> "LinExpr":
        return LinExpr({symbol: -value for symbol, value in self._terms.items()}, -self._constant)

    def __mul__(self, factor: NumberLike) -> "LinExpr":
        if isinstance(factor, (LinExpr, Symbol)):
            return NotImplemented
        value = as_fraction(factor)
        if value == 0:
            return _ZERO
        return LinExpr(
            {symbol: coefficient * value for symbol, coefficient in self._terms.items()},
            self._constant * value,
        )

    __rmul__ = __mul__

    def __truediv__(self, divisor: NumberLike) -> "LinExpr":
        value = as_fraction(divisor)
        if value == 0:
            raise ExpressionDomainError("division of an expression by zero")
        return self * (Fraction(1) / value)

    # ------------------------------------------------------------------
    # Evaluation and substitution
    # ------------------------------------------------------------------

    def evaluate(self, bindings: Mapping[Symbol, NumberLike]) -> Fraction:
        """Evaluate the expression with every symbol bound to a number.

        Raises :class:`~repro.exceptions.ExpressionDomainError` when a symbol
        is missing from ``bindings``.
        """
        total = self._constant
        for symbol, coefficient in self._terms.items():
            if symbol not in bindings:
                raise ExpressionDomainError(f"no binding provided for symbol {symbol}")
            total += coefficient * as_fraction(bindings[symbol])
        return total

    def substitute(self, bindings: Mapping[Symbol, ExprLike]) -> "LinExpr":
        """Replace some symbols by numbers, symbols or other linear expressions."""
        result = LinExpr.constant(self._constant)
        for symbol, coefficient in self._terms.items():
            if symbol in bindings:
                replacement = bindings[symbol]
                if isinstance(replacement, LinExpr):
                    result = result + replacement * coefficient
                elif isinstance(replacement, Symbol):
                    result = result + LinExpr.from_symbol(replacement, coefficient)
                else:
                    result = result + coefficient * as_fraction(replacement)
            else:
                result = result + LinExpr.from_symbol(symbol, coefficient)
        return result

    # ------------------------------------------------------------------
    # Equality / ordering helpers / rendering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, LinExpr):
            return self._terms == other._terms and self._constant == other._constant
        if isinstance(other, Symbol):
            return self == LinExpr.from_symbol(other)
        if isinstance(other, (int, float, Fraction)) and not isinstance(other, bool):
            try:
                return not self._terms and self._constant == as_fraction(other)
            except (TypeError, ValueError, ExpressionDomainError):
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._terms.items()), self._constant))
        return self._hash

    def sorted_terms(self) -> Tuple[Tuple[Symbol, Fraction], ...]:
        """Terms sorted by symbol kind/name for deterministic output."""
        return tuple(sorted(self._terms.items(), key=lambda item: (item[0].kind, item[0].name)))

    @staticmethod
    def _format_fraction(value: Fraction) -> str:
        if value.denominator == 1:
            return str(value.numerator)
        as_float = float(value)
        if Fraction(repr(as_float)) == value:
            return repr(as_float)
        return f"{value.numerator}/{value.denominator}"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for symbol, coefficient in self.sorted_terms():
            if coefficient == 1:
                term = str(symbol)
            elif coefficient == -1:
                term = f"-{symbol}"
            else:
                term = f"{self._format_fraction(coefficient)}*{symbol}"
            parts.append(term)
        if self._constant or not parts:
            parts.append(self._format_fraction(self._constant))
        rendered = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                rendered += f" - {part[1:]}"
            else:
                rendered += f" + {part}"
        return rendered

    def __repr__(self) -> str:
        return f"LinExpr({self})"

    def __bool__(self) -> bool:
        return not self.is_zero()


def _reintern_expr(terms, constant) -> LinExpr:
    """Unpickling hook: rebuild an expression and resolve it to the canonical
    local instance (module-level so pickle can import it by name)."""
    return LinExpr(terms, constant).interned()


_ZERO = LinExpr()

TimeValue = Union[Fraction, LinExpr]
"""The two scalar domains used for times throughout the library."""


def as_expr(value: ExprLike) -> LinExpr:
    """Coerce a number, symbol or expression into a :class:`LinExpr`."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Symbol):
        return LinExpr.from_symbol(value)
    return LinExpr.constant(as_fraction(value))


def as_time(value: ExprLike) -> TimeValue:
    """Coerce a time annotation into either an exact Fraction or a LinExpr.

    Numeric inputs become :class:`~fractions.Fraction`; symbolic inputs stay
    symbolic.  This is the canonical conversion applied to enabling and
    firing times when a :class:`~repro.petri.net.TimedPetriNet` is built.
    """
    if isinstance(value, LinExpr):
        return value.constant_value() if value.is_constant() else value
    if isinstance(value, Symbol):
        return LinExpr.from_symbol(value)
    return as_fraction(value)


def is_symbolic(value: object) -> bool:
    """True when ``value`` is a non-constant symbolic expression."""
    return isinstance(value, LinExpr) and not value.is_constant()
