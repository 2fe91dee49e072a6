"""Exact Fibonacci and Lucas numbers.

Both sequences satisfy s(n) = s(n-1) + s(n-2) and differ only in their
seeds.  Each term is computed on demand by fast doubling, in O(log n)
multiplications of plain ``int`` values, so terms stay exact and no state
is kept between calls.
"""

from __future__ import annotations

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

# The largest index served.  It bounds the size of a term (fib(20000) and
# lucas(20000) have 4,180 digits) and so the work of the closed forms, which
# multiply such terms: their values can pass Python's default 4,300-digit
# str() limit, which the CLI lifts while it runs.
MAX_INDEX = 20_000


def _check_index(n: int) -> None:
    """Refuse an index that :func:`fib` and :func:`lucas` do not serve, computing no term."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"index must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n > MAX_INDEX:
        raise ValueError(f"index {n} is over the bound of {MAX_INDEX}")


def _fib_pair(n: int) -> tuple[int, int]:
    """``(F_n, F_{n+1})`` by fast doubling: F_2m = F_m*(2F_{m+1} - F_m), F_2m+1 = F_m^2 + F_{m+1}^2."""
    _check_index(n)
    a, b = 0, 1  # (F_m, F_{m+1}), m the number spelt by the bits of n read so far
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def fib(n: int) -> int:
    """n-th Fibonacci number: 0, 1, 1, 2, 3, 5, 8, ..."""
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """n-th Lucas number: 2, 1, 3, 4, 7, 11, 18, ..."""
    f, f1 = _fib_pair(n)
    return 2 * f1 - f


def seq(kind: SequenceKind | str, n: int) -> int:
    """Term ``n`` of the sequence selected by ``kind``."""
    if SequenceKind.parse(kind) is SequenceKind.FIBONACCI:
        return fib(n)
    return lucas(n)
