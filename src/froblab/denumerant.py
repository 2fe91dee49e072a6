"""Representation counts over a fixed generator tuple.

The denumerant ``d(n; a_1, ..., a_l)`` is the number of ways to write
``n = x_1*a_1 + ... + x_l*a_l`` with every ``x_j`` a non-negative
integer.  Counts are exact Python ints throughout; nothing here is
floating point or modular.

The scan route (:func:`p_frobenius_scan`, :func:`p_sylvester_scan`,
:func:`largest_with_exactly_p`) works straight off the dense count table and
never looks at residues.  It shares no code with the residue walk of
:mod:`froblab.apery`; keeping both alive is the point — each checks the other.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .generators import GeneratorTuple

__all__ = [
    "DenumerantTable",
    "denumerant",
    "denumerant_table",
    "largest_with_exactly_p",
    "p_frobenius_scan",
    "p_sylvester_scan",
]


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


def _certified_counts(gens: "GeneratorTuple | Iterable[int]", p: int) -> list[int]:
    """A count table whose tail is provably past level ``p``.

    Counts never decrease along a residue class as ``n`` steps by ``a_1``
    (add one more copy of ``a_1``), so once the top ``a_1`` entries all
    exceed ``p`` every integer beyond the table does too.
    """
    tup = GeneratorTuple(gens)
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    a1 = tup.a1
    cap = (p + 1) * tup.gens[0] * tup.gens[1]
    while True:
        counts = _compute_counts(tup.gens, cap)
        if all(c > p for c in counts[cap - a1 + 1 :]):
            return counts
        cap *= 2


def p_frobenius_scan(gens: "GeneratorTuple | Iterable[int]", p: int) -> int:
    """Independent route: scan the raw count table downward.

    Returns ``-1`` when no non-negative integer has at most ``p``
    representations (only possible when 1 is a generator).
    """
    counts = _certified_counts(gens, p)
    for n in range(len(counts) - 1, -1, -1):
        if counts[n] <= p:
            return n
    return -1


def p_sylvester_scan(gens: "GeneratorTuple | Iterable[int]", p: int) -> int:
    """Independent route: count qualifying integers directly."""
    counts = _certified_counts(gens, p)
    return sum(1 for c in counts if c <= p)


def largest_with_exactly_p(gens: "GeneratorTuple | Iterable[int]", p: int) -> Optional[int]:
    """Largest ``n`` with exactly ``p`` representations, or ``None`` if none has.

    Every integer past the certified table has more than ``p``, so the
    answer, if any, lies inside it.
    """
    counts = _certified_counts(gens, p)
    return next((n for n in range(len(counts) - 1, -1, -1) if counts[n] == p), None)
