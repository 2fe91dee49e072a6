"""Generator tuples, the input every route takes.

This module belongs to no route: the closed forms, the residue walk and the
dense count table each import it, and none of them imports another.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

__all__ = ["TupleValidationError", "DegenerateTupleError", "GeneratorTuple"]


class TupleValidationError(ValueError):
    """Raised when a candidate generator tuple is unusable."""


class DegenerateTupleError(ValueError):
    """The tuple contains 1, so every integer is representable at level 0."""


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

    @property
    def gens(self) -> tuple[int, ...]:
        """The generators as a plain ``tuple``, ascending."""
        return self[:]

    @property
    def a1(self) -> int:
        """Smallest generator (the modulus used by residue arguments)."""
        return self[0]

    def __repr__(self) -> str:
        return f"GeneratorTuple(gens={self[:]!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self) + ")"
