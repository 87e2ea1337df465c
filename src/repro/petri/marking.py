"""Markings of (timed) Petri nets.

A marking assigns a non-negative number of tokens to every place of a net;
``mu(p)`` in the paper's notation.  :class:`Marking` is an immutable,
hashable mapping used both as the ``marking`` component of timed states and
as the node identity of untimed reachability graphs.

Markings intentionally remember the *place order* of the net they belong to
so that they can render themselves as the fixed-width rows of the paper's
Figure 4b / Figure 6b tables and convert to dense vectors for linear-algebra
based analyses (invariants, incidence).
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Dict, Sequence, Tuple

from ..exceptions import MarkingError
from .multiset import Multiset


class Marking(Mapping):
    """An immutable token assignment over an ordered set of places.

    Parameters
    ----------
    place_order:
        The ordered tuple of place names of the net.  The order is part of
        the marking identity only in the sense that vector conversions use
        it; equality and hashing depend solely on the token counts.
    tokens:
        Mapping from place name to token count.  Places not mentioned hold
        zero tokens.  Counts must be non-negative integers.
    """

    __slots__ = ("_order", "_tokens", "_known", "_hash")

    def __init__(self, place_order: Sequence[str], tokens: Mapping[str, int] | None = None):
        order = tuple(place_order)
        known = frozenset(order)
        if len(known) != len(order):
            raise MarkingError("place order contains duplicate place names")
        data: Dict[str, int] = {}
        for place, count in (tokens or {}).items():
            if place not in known:
                raise MarkingError(f"marking mentions unknown place {place!r}")
            if not isinstance(count, int) or isinstance(count, bool):
                raise MarkingError(f"token count for {place!r} must be an int, got {count!r}")
            if count < 0:
                raise MarkingError(f"token count for {place!r} must be non-negative, got {count}")
            if count:
                data[place] = count
        self._order: Tuple[str, ...] = order
        self._tokens: Dict[str, int] = data
        self._known: frozenset = known
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, place_order: Tuple[str, ...], known: frozenset, tokens: Dict[str, int]) -> "Marking":
        """Internal constructor that skips validation.

        For callers (the compiled reachability engine) that guarantee the
        invariants by construction: ``tokens`` holds only strictly positive
        int counts for places of ``place_order``, and ``known`` is the
        frozenset of ``place_order``.
        """
        marking = object.__new__(cls)
        marking._order = place_order
        marking._tokens = tokens
        marking._known = known
        marking._hash = None
        return marking

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __reduce__(self):
        # Rebuild through the trusted constructor so the cached hash is
        # recomputed in the reading process: it hashes place-name strings,
        # whose hashes are salted per process by PYTHONHASHSEED, so a cached
        # value pickled by another process (a disk-tier artifact read after
        # a restart) would be wrong.
        return (Marking._trusted, (self._order, self._known, self._tokens))

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------

    def __getitem__(self, place: str) -> int:
        # Membership against the precomputed frozenset keeps token lookups
        # O(1); scanning the place-order tuple made this O(P) per access.
        if place not in self._known:
            raise MarkingError(f"unknown place {place!r}")
        return self._tokens.get(place, 0)

    def get(self, place: str, default: int = 0) -> int:  # type: ignore[override]
        return self._tokens.get(place, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def place_order(self) -> Tuple[str, ...]:
        """The place ordering used for vector conversion."""
        return self._order

    def total_tokens(self) -> int:
        """Total number of tokens in the marking."""
        return sum(self._tokens.values())

    def marked_places(self) -> Tuple[str, ...]:
        """Places holding at least one token, in place order."""
        return tuple(place for place in self._order if self._tokens.get(place, 0))

    def covers(self, bag: Multiset) -> bool:
        """Enabling test: does this marking provide every token the bag requires?"""
        return all(self._tokens.get(place, 0) >= count for place, count in bag.items())

    def is_safe(self) -> bool:
        """True when no place holds more than one token (1-safeness of this marking)."""
        return all(count <= 1 for count in self._tokens.values())

    # ------------------------------------------------------------------
    # Token flow
    # ------------------------------------------------------------------

    def remove(self, bag: Multiset) -> "Marking":
        """Return the marking obtained by removing the tokens of ``bag``.

        Raises :class:`~repro.exceptions.MarkingError` if the marking does not
        cover the bag — firing rules must check :meth:`covers` first.
        """
        if not self.covers(bag):
            raise MarkingError(f"marking {self.to_dict()} does not cover input bag {dict(bag)}")
        tokens = dict(self._tokens)
        for place, count in bag.items():
            remaining = tokens.get(place, 0) - count
            if remaining:
                tokens[place] = remaining
            else:
                tokens.pop(place, None)
        return Marking(self._order, tokens)

    def add(self, bag: Multiset) -> "Marking":
        """Return the marking obtained by depositing the tokens of ``bag``."""
        tokens = dict(self._tokens)
        for place, count in bag.items():
            if place not in self._known:
                raise MarkingError(f"output bag mentions unknown place {place!r}")
            tokens[place] = tokens.get(place, 0) + count
        return Marking(self._order, tokens)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_vector(self) -> Tuple[int, ...]:
        """Dense token-count vector following the place order."""
        return tuple(self._tokens.get(place, 0) for place in self._order)

    def to_dict(self) -> Dict[str, int]:
        """Sparse ``{place: count}`` dictionary (only positive counts)."""
        return dict(self._tokens)

    @classmethod
    def from_vector(cls, place_order: Sequence[str], vector: Sequence[int]) -> "Marking":
        """Build a marking from a dense vector aligned with ``place_order``."""
        order = tuple(place_order)
        if len(vector) != len(order):
            raise MarkingError(
                f"vector of length {len(vector)} does not match {len(order)} places"
            )
        return cls(order, {place: int(count) for place, count in zip(order, vector) if count})

    def with_place_order(self, place_order: Sequence[str]) -> "Marking":
        """Re-express this marking over a different (superset) place order."""
        return Marking(place_order, self._tokens)

    # ------------------------------------------------------------------
    # Equality / hashing / representation
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._tokens == other._tokens
        if isinstance(other, Mapping):
            return self._tokens == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._tokens.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{place}: {count}" for place, count in sorted(self._tokens.items()))
        return f"Marking({{{inner}}})"

    def format_row(self) -> str:
        """Fixed-width rendering used when reproducing the paper's state tables."""
        return " ".join(str(self._tokens.get(place, 0)) for place in self._order)
