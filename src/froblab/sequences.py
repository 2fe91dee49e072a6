"""Exact Fibonacci and Lucas numbers.

Both sequences satisfy s(n) = s(n-1) + s(n-2) and differ only in their
seeds.  Everything is plain ``int`` arithmetic, so values stay exact no
matter how large the index gets.
"""

from __future__ import annotations

import threading
from enum import Enum

__all__ = ["MAX_INDEX", "SequenceKind", "fib", "lucas", "seq"]


class SequenceKind(Enum):
    """Which second-order recurrence a computation refers to."""

    FIBONACCI = "fib"
    LUCAS = "lucas"

    @classmethod
    def parse(cls, value: "SequenceKind | str") -> "SequenceKind":
        """Accept a member, its value, or a common alias (case-insensitive)."""
        if isinstance(value, SequenceKind):
            return value
        try:
            return _ALIASES[str(value).strip().lower()]
        except KeyError:
            raise ValueError(f"unknown sequence kind: {value!r}") from None


_ALIASES = {
    "fib": SequenceKind.FIBONACCI,
    "fibonacci": SequenceKind.FIBONACCI,
    "f": SequenceKind.FIBONACCI,
    "lucas": SequenceKind.LUCAS,
    "l": SequenceKind.LUCAS,
}

# The largest index served.  The cache below holds every term up to the index
# asked for, about 0.35*n^2 bits in all.  fib(20000) and lucas(20000) have 4,180
# digits, but a closed form multiplies such terms: its value can pass Python's
# default 4,300-digit str() limit, which the CLI lifts while it runs.
MAX_INDEX = 20_000

# Grow-only term caches.  Appending is done under the lock, and a reader
# only indexes positions that are already filled, so a cached lookup is
# always identical to an uncached recomputation.
_lock = threading.Lock()
_fib_terms = [0, 1]
_lucas_terms = [2, 1]


def _check_index(n: int) -> None:
    """Refuse an index that :func:`fib` and :func:`lucas` do not serve, computing no term."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"index must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > MAX_INDEX:
        raise ValueError(f"index {n} is over the bound of {MAX_INDEX}")


def _term(terms: list[int], n: int) -> int:
    _check_index(n)
    if n >= len(terms):
        with _lock:
            while len(terms) <= n:
                terms.append(terms[-1] + terms[-2])
    return terms[n]


def fib(n: int) -> int:
    """n-th Fibonacci number: 0, 1, 1, 2, 3, 5, 8, ..."""
    return _term(_fib_terms, n)


def lucas(n: int) -> int:
    """n-th Lucas number: 2, 1, 3, 4, 7, 11, 18, ..."""
    return _term(_lucas_terms, n)


def seq(kind: SequenceKind | str, n: int) -> int:
    """Term ``n`` of the sequence selected by ``kind``."""
    if SequenceKind.parse(kind) is SequenceKind.FIBONACCI:
        return fib(n)
    return lucas(n)
