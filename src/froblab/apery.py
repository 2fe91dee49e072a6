"""Level-p Apery sets and the two quantities they determine.

Fix a generator tuple with smallest element ``a_1``.  For each residue
``j mod a_1`` there is a least integer ``n ≡ j`` whose representation
count is at least ``p + 1``; the ``a_1`` integers so obtained form the
level-p Apery set.  From that one set both derived quantities follow
exactly:

* the largest integer with at most ``p`` representations is
  ``max(elements) - a_1``;
* the number of non-negative integers with at most ``p`` representations
  is ``sum(elements)/a_1 - (a_1 - 1)/2``, always an integer.

Tuples with ``a_1 = 1`` have a single residue class and are refused with
:class:`DegenerateTupleError`; the scan route below accepts them.

The Apery route never counts representations.  Writing
``n = x_1*a_1 + s`` with ``s`` a combination of ``a_2..a_l`` shows that
``d(n)`` is the number of such ``s <= n`` with ``s ≡ n (mod a_1)``, so the
level-p element of residue ``j`` is the ``(p+1)``-th smallest such ``s``
(counted with multiplicity).  :func:`apery_levels` keeps the ``p+1``
smallest values per residue and adds the generators one at a time with a
round-robin walk over the cycles of ``+a_j mod a_1`` (Böcker & Lipták,
"A fast and simple algorithm for the money changing problem", 2007, on
the residue graph of Nijenhuis, 1979), extended from one value per
residue to ``p+1``.  Each cycle takes two laps, each step a merge of two
lists of at most ``p+1`` values, so one call gives every level ``0..p``
for ``O(l*a_1*(p+1))`` integer operations, plus a sort of ``(p+1)^2``
values per cycle.

Alongside it this module ships an independent scan route
(:func:`p_frobenius_scan`, :func:`p_sylvester_scan`) that works straight
off the dense count table of :mod:`froblab.denumerant` and never looks at
residues.  The two routes share no code; keeping both alive is the
point — each checks the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable

from .denumerant import GeneratorTuple, denumerant_table

__all__ = [
    "DegenerateTupleError",
    "AperySet",
    "apery_set",
    "apery_levels",
    "p_frobenius",
    "p_sylvester",
    "p_frobenius_scan",
    "p_sylvester_scan",
]


class DegenerateTupleError(ValueError):
    """The tuple contains 1, so every integer is representable at level 0."""


@dataclass(frozen=True)
class AperySet:
    """The level-``p`` Apery elements, indexed by residue mod ``a_1``.

    ``elements[j]`` is the least ``n ≡ j (mod a_1)`` with more than ``p``
    representations.
    """

    gens: GeneratorTuple
    p: int
    elements: tuple[int, ...]

    def frobenius(self) -> int:
        """Largest integer with at most ``p`` representations."""
        return max(self.elements) - self.gens.a1

    def sylvester(self) -> int:
        """How many non-negative integers have at most ``p`` representations."""
        a1 = self.gens.a1
        numerator = 2 * sum(self.elements) - a1 * (a1 - 1)
        q, rem = divmod(numerator, 2 * a1)
        if rem:
            raise AssertionError(
                f"sylvester closing formula must divide exactly; "
                f"gens={self.gens} p={self.p} numerator={numerator}"
            )
        return q


def _merge(own: tuple[int, ...], prev: tuple[int, ...], a: int, keep: int) -> tuple[int, ...]:
    """The ``keep`` smallest of ``own`` together with ``prev`` shifted by ``a``."""
    return tuple(sorted(own + tuple(v + a for v in prev))[:keep])


@lru_cache(maxsize=1)
def _apery_elements(gens: tuple[int, ...], p_max: int) -> tuple[tuple[int, ...], ...]:
    """Apery elements of levels ``0..p_max``, one residue-indexed tuple each."""
    a1 = gens[0]
    keep = p_max + 1
    # smallest[j]: the `keep` smallest combinations of the generators added
    # so far that are ≡ j (mod a1), with multiplicity, ascending.
    smallest: list[tuple[int, ...]] = [()] * a1
    smallest[0] = (0,)
    for a in gens[1:]:
        # Adding a links residue j to j + a; the residues fall into cycles,
        # and a full trip round one adds `lap`.
        step = a % a1
        cycles = gcd(step, a1)
        length = a1 // cycles
        lap = length * a
        for start in range(cycles):
            cycle = [(start + t * step) % a1 for t in range(length)]
            # First lap: what reaches `start` from the other residues of the
            # cycle (1..length-1 copies of a), plus what is there already.
            reach: tuple[int, ...] = ()
            for j in cycle[1:]:
                reach = _merge(smallest[j], reach, a, keep)
            reach = _merge(smallest[start], reach, a, keep)
            # Anything else at `start` is one of these taken w >= 1 more times
            # round the cycle; v + w*lap has w smaller values, so w < keep.
            smallest[start] = tuple(
                sorted(v + w * lap for v in reach for w in range(keep))[:keep]
            )
            # Second lap: each residue from its settled predecessor.
            for prev, j in zip(cycle, cycle[1:]):
                smallest[j] = _merge(smallest[j], smallest[prev], a, keep)
    return tuple(tuple(vals[p] for vals in smallest) for p in range(keep))


def apery_levels(gens: "GeneratorTuple | Iterable[int]", p_max: int) -> tuple[AperySet, ...]:
    """Level-``0..p_max`` Apery sets of ``gens`` from one residue walk.

    Only the latest ``(gens, p_max)`` is cached: that is enough for a caller
    that asks for ``g`` and then ``n`` of one tuple, and a sweep over many
    tuples holds one walk at a time.  Raises :class:`DegenerateTupleError`
    when the smallest generator is 1.
    """
    tup = GeneratorTuple(gens)
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    if tup.a1 == 1:
        raise DegenerateTupleError(f"smallest generator of {tup} is 1")
    return tuple(
        AperySet(tup, p, elements)
        for p, elements in enumerate(_apery_elements(tup.gens, p_max))
    )


def apery_set(gens: "GeneratorTuple | Iterable[int]", p: int) -> AperySet:
    """Level-``p`` Apery set of ``gens``.

    Raises :class:`DegenerateTupleError` when the smallest generator is 1
    (a single residue class, and ``frobenius`` would be meaningless).
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    return apery_levels(gens, p)[p]


def p_frobenius(gens: "GeneratorTuple | Iterable[int]", p: int) -> int:
    """Largest integer with at most ``p`` representations (Apery route)."""
    return apery_set(gens, p).frobenius()


def p_sylvester(gens: "GeneratorTuple | Iterable[int]", p: int) -> int:
    """Count of integers with at most ``p`` representations (Apery route)."""
    return apery_set(gens, p).sylvester()


def _certified_counts(tup: GeneratorTuple, p: int) -> list[int]:
    """A count table whose tail is provably past level ``p``.

    Counts never decrease along a residue class as ``n`` steps by ``a_1``
    (add one more copy of ``a_1``), so once the top ``a_1`` entries all
    exceed ``p`` every integer beyond the table does too.
    """
    a1 = tup.a1
    cap = (p + 1) * tup.gens[0] * tup.gens[1]
    while True:
        counts = denumerant_table(cap, tup).counts
        if all(c > p for c in counts[cap - a1 + 1 :]):
            return counts
        cap *= 2


def p_frobenius_scan(gens: "GeneratorTuple | Iterable[int]", p: int) -> int:
    """Independent route: scan the raw count table downward.

    Returns ``-1`` when no non-negative integer has at most ``p``
    representations (only possible when 1 is a generator).
    """
    tup = GeneratorTuple(gens)
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    counts = _certified_counts(tup, p)
    for n in range(len(counts) - 1, -1, -1):
        if counts[n] <= p:
            return n
    return -1


def p_sylvester_scan(gens: "GeneratorTuple | Iterable[int]", p: int) -> int:
    """Independent route: count qualifying integers directly."""
    tup = GeneratorTuple(gens)
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    counts = _certified_counts(tup, p)
    return sum(1 for c in counts if c <= p)
