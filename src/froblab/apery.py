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
:class:`DegenerateTupleError`; the scan route of :mod:`froblab.denumerant`
accepts them.

The Apery route never counts representations.  Writing
``n = x_1*a_1 + s`` with ``s`` a combination of ``a_2..a_l`` shows that
``d(n)`` is the number of such ``s <= n`` with ``s ≡ n (mod a_1)``, so the
level-p element of residue ``j`` is the ``(p+1)``-th smallest such ``s``
(counted with multiplicity).  :func:`apery_levels` keeps the ``p+1``
smallest values per residue and adds the generators one at a time with a
round-robin walk over the cycles of ``+a_j mod a_1`` (Böcker & Lipták,
"A fast and simple algorithm for the money changing problem", 2007, on
the residue graph of Nijenhuis, 1979), extended from one value per
residue to ``p+1``.  The lists of ``a_1, a_2`` alone are written down, not
walked: residue ``t*a_2 mod a_1``, for ``t < a_1/gcd(a_1, a_2)``, holds
``t*a_2`` and one more value every lap of ``a_2*a_1/gcd(a_1, a_2)``, a
``range``.  Every later generator takes two laps per cycle.  The first
settles the cycle's start: it sorts the least arrival of each list on the
cycle and folds in the ``p+1`` lists with the least of these, in that
order, keeping the ``p+1`` smallest values and reading a list only below the
largest once they are held; values spanning at most one lap are final, and
otherwise their later trips round the cycle are merged in.  The second
walks the cycle once, merging each residue's list with its settled
predecessor's shifted by ``a_j``, and skips the merge when the list is full
and no arrival is smaller than its last value.  One call gives every level
``0..p`` for ``O(l*a_1*(p+1)*log(a_1*(p+1)))`` integer operations, and is
refused beforehand past :data:`VALUE_BUDGET`.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate, islice, repeat
from math import gcd
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .generators import DegenerateTupleError, GeneratorTuple

__all__ = ["VALUE_BUDGET", "AperySet", "apery_levels"]


# The most one residue walk may hold, counted as
# (a_1 + _LEVEL_CHARGE)*(p_max + 2) + a_1*p_max//3.  That is a_1 values per level
# plus one per residue, whose own list costs about as much as 1.3 values, plus
# _LEVEL_CHARGE per level, plus a third for each value past a residue's first:
# a value past 2**30 is a sum, whose spare digit takes it from a 32- to a 48-byte
# block, and without that third compute --kind fib --i 26 --k 4 --p 39 (a_1 =
# 121,393) peaked at 317 MB, against 253 MB for the largest call admitted at
# p_max = 0.  A level also costs its tuple and its AperySet, and past two
# generators the walk merges p_max + 1 rounds of each cycle at once.  At a_1 = 2
# that is nearly all of it: charged a_1*(p_max + 2), compute --gens 2,3 --p
# 2000000 peaked at 506 MB, twice the largest call admitted at large a_1.
# Checked before anything is allocated; the README gives the time and peak
# memory of the largest family calls it admits.
VALUE_BUDGET = 5_000_000
_LEVEL_CHARGE = 11
# A cycle's list heads are sorted this many at a time, keeping the p_max + 1
# least between batches: one sort of a whole cycle holds a tuple per residue,
# which at a_1 = 2,178,309 and p_max = 0 raised the peak from 253 to 343 MB.
_HEADS_AT_ONCE = 4096


class AperySet(NamedTuple):
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


def _apery_elements(gens: tuple[int, ...], p_max: int) -> tuple[tuple[int, ...], ...]:
    """Apery elements of levels ``0..p_max``, one residue-indexed tuple each."""
    a1, a2 = gens[0], gens[1]
    keep = p_max + 1
    # smallest[j]: the `keep` smallest combinations of the generators added
    # so far that are ≡ j (mod a1), with multiplicity, ascending.  Adding a
    # links residue j to j + a; the residues fall into cycles, and a full
    # trip round one adds `lap`.  From {0}, a2 reaches only the cycle through
    # 0: residue t*a2 % a1 holds t*a2 and then one more value every lap, a
    # range whose stop every residue shares, since each t*a2 is under one lap.
    length = a1 // gcd(a1, a2)
    lap = length * a2
    stop = keep * lap
    smallest: list[Sequence[int]] = [()] * a1
    # The multiples of a2 are made by addition, as every later value is:
    # CPython gives a sum of multi-digit ints a spare digit and so a larger
    # allocation than range() gives the same int, and a pass that frees ints
    # of one size and makes ints of the other cannot reuse the memory
    # (range(0, lap, a2) raised the peak at a1 = 2,178,309, p_max = 0 from 253
    # to 286 MB).
    for v in accumulate(repeat(a2, length - 1), initial=0):
        smallest[v % a1] = range(v, stop, lap)
    for a in gens[2:]:
        step = a % a1
        cycles = gcd(step, a1)
        length = a1 // cycles
        lap = length * a
        for start in range(cycles):
            # First lap, counted by t = 1..length, not by value: residue
            # (start + t*step) % a1 is (length - t) steps of a short of `start`,
            # so its values arrive there raised by (length - t)*a.  A list whose
            # least arrival is not among the keep least has keep smaller arrivals
            # before its first, so only the keep least heads' lists are read, in
            # head order; once keep values are held, a list is read only below
            # the largest of them, so the lap holds O(keep) values.
            heads: list[tuple[int, int]] = []
            for lo in range(1, length + 1, _HEADS_AT_ONCE):
                heads += (
                    (own[0] - t * a, t)
                    for t in range(lo, min(lo + _HEADS_AT_ONCE, length + 1))
                    if (own := smallest[(start + t * step) % a1])
                )
                heads.sort()
                del heads[keep:]
            if not heads:  # no value on this cycle yet
                continue
            reach: list[int] = []
            for _, t in heads:
                shift = (length - t) * a
                own = smallest[(start + t * step) % a1]
                cut = bisect_left(own, reach[-1] - shift) if len(reach) == keep else keep
                if not cut:  # the heads ascend, so no later list reaches lower
                    break
                reach += [v + shift for v in islice(own, cut)]
                reach.sort()
                del reach[keep:]
            # Anything else at `start` is one of these taken w >= 1 more times
            # round the cycle, so none is below reach[0] + lap: keep values
            # spanning at most one lap are final.  Otherwise v + w*lap has w
            # smaller values, so w < keep; merging the keep rounds of each value
            # holds O(keep) of them, not keep**2 (at a1 = 2 and a deep p_max).
            if len(reach) == keep and reach[-1] <= reach[0] + lap:
                prev = smallest[start] = tuple(reach)
            else:
                prev = smallest[start] = tuple(
                    islice(heapq.merge(*(range(v, v + keep * lap, lap) for v in reach)), keep)
                )
            # Second lap: each residue from its settled predecessor.  A full
            # list whose largest value is at most the least arrival is final.
            for t in range(1, length):
                j = (start + t * step) % a1
                own = smallest[j]
                if len(own) < keep or own[-1] > prev[0] + a:
                    merged = [v + a for v in prev]
                    merged += own
                    merged.sort()
                    own = smallest[j] = tuple(merged[:keep])
                prev = own
    # One C-level pass per level.  zip(*smallest) is a little faster on
    # small a1 but makes an iterator per residue: at p = 0 and a1 = 317811
    # it raised the peak RSS from 58 MB to 75 MB.
    return tuple(tuple(map(itemgetter(p), smallest)) for p in range(keep))


def _short(n: int) -> str:
    """``n`` itself, or its digit count once it would not fit on a line."""
    text = str(n)
    return text if len(text) <= 20 else f"({len(text)} digits)"


def _check_budget(a1: int, p_max: int) -> None:
    """``ValueError`` if a walk with ``a_1 = a1`` to level ``p_max`` is over :data:`VALUE_BUDGET`."""
    need = (a1 + _LEVEL_CHARGE) * (p_max + 2) + a1 * p_max // 3
    if need > VALUE_BUDGET:
        raise ValueError(
            f"a_1 = {_short(a1)} at levels 0..{_short(p_max)} needs (a_1+{_LEVEL_CHARGE})*(p_max+2) "
            f"+ a_1*p_max//3 = {_short(need)}, over the budget of {VALUE_BUDGET}"
        )


def apery_levels(gens: "GeneratorTuple | Iterable[int]", p_max: int) -> tuple[AperySet, ...]:
    """Level-``0..p_max`` Apery sets of ``gens`` from one residue walk.

    Raises :class:`DegenerateTupleError` when the smallest generator is 1,
    and ``ValueError`` before allocating anything when the walk's charge
    exceeds :data:`VALUE_BUDGET`.
    """
    tup = GeneratorTuple(gens)
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    if tup.a1 == 1:
        raise DegenerateTupleError(f"smallest generator of {tup} is 1")
    _check_budget(tup.a1, p_max)
    return tuple(
        AperySet(tup, p, elements)
        for p, elements in enumerate(_apery_elements(tup.gens, p_max))
    )
