"""Representation counts over a fixed generator tuple.

The denumerant ``d(n; a_1, ..., a_l)`` is the number of ways to write
``n = x_1*a_1 + ... + x_l*a_l`` with every ``x_j`` a non-negative
integer.  Counts are exact Python ints throughout; nothing here is
floating point or modular.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "TupleValidationError",
    "GeneratorTuple",
    "DenumerantTable",
    "denumerant",
    "denumerant_table",
    "largest_with_exactly_p",
]


class TupleValidationError(ValueError):
    """Raised when a candidate generator tuple is unusable."""


class GeneratorTuple(tuple):
    """Generators ``a_1 < a_2 < ... < a_l`` with ``gcd = 1``.

    Input order does not matter; the tuple is stored sorted ascending.
    Duplicates are rejected rather than collapsed, so a typo in the input
    cannot silently change the problem being solved.  It is itself a
    ``tuple`` of the generators, equal to a plain tuple of the same values.
    """

    __slots__ = ()

    def __new__(cls, gens: Iterable[int]) -> "GeneratorTuple":
        items = list(gens)
        for g in items:
            if isinstance(g, bool) or not isinstance(g, int):
                raise TupleValidationError(f"generators must be ints, got {g!r}")
            if g < 1:
                raise TupleValidationError(f"generators must be positive, got {g}")
        if len(items) < 2:
            raise TupleValidationError(f"need at least two generators, got {items}")
        if len(set(items)) != len(items):
            raise TupleValidationError(f"duplicate generators in {sorted(items)}")
        items.sort()
        common = 0
        for g in items:
            common = gcd(common, g)
        if common != 1:
            raise TupleValidationError(
                f"generators {tuple(items)} share the common divisor {common}"
            )
        return super().__new__(cls, items)

    @classmethod
    def of(cls, *gens: int) -> "GeneratorTuple":
        return cls(gens)

    @property
    def gens(self) -> tuple[int, ...]:
        """The generators as a plain ``tuple``, ascending."""
        return self[:]

    @property
    def a1(self) -> int:
        """Smallest generator (the modulus used by residue arguments)."""
        return self[0]

    @property
    def a2(self) -> int:
        return self[1]

    def __repr__(self) -> str:
        return f"GeneratorTuple(gens={self[:]!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self) + ")"


class DenumerantTable(NamedTuple):
    """Dense table of representation counts for ``0..limit``."""

    gens: GeneratorTuple
    limit: int
    counts: list[int]

    def count(self, n: int) -> int:
        if not 0 <= n <= self.limit:
            raise IndexError(f"n={n} outside table range 0..{self.limit}")
        return self.counts[n]


def _compute_counts(gens: tuple[int, ...], limit: int) -> list[int]:
    # Standard unbounded-coin dynamic programme: processing one generator
    # at a time counts each exponent vector exactly once.
    counts = [0] * (limit + 1)
    counts[0] = 1
    for g in gens:
        for n in range(g, limit + 1):
            counts[n] += counts[n - g]
    return counts


def denumerant_table(limit: int, gens: "GeneratorTuple | Iterable[int]") -> DenumerantTable:
    """Counts for every ``n`` in ``0..limit`` (inclusive)."""
    tup = GeneratorTuple(gens)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return DenumerantTable(tup, limit, _compute_counts(tup.gens, limit))


def denumerant(n: int, gens: "GeneratorTuple | Iterable[int]") -> int:
    """Number of representations of ``n`` over ``gens``."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return denumerant_table(n, gens).counts[n]


def largest_with_exactly_p(
    gens: "GeneratorTuple | Iterable[int]", p: int, search_cap: int
) -> Optional[int]:
    """Largest ``n <= search_cap`` with exactly ``p`` representations.

    Returns ``None`` when no integer in ``0..search_cap`` has count ``p``.
    The caller owns the choice of ``search_cap``; no attempt is made to
    certify that nothing above it qualifies.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    table = denumerant_table(search_cap, gens)
    for n in range(search_cap, -1, -1):
        if table.counts[n] == p:
            return n
    return None
