"""The one place that picks a route to ``g_p`` or ``n_p``.

``method="closed"`` demands a closed form of :mod:`froblab.closed_forms`,
``"oracle"`` reads the Apery set that :mod:`froblab.apery` walks, and
``"auto"`` takes the closed form where a branch covers the point and walks
otherwise.  A closed form exists only for a family triple
``(x_i, x_{i+2}, x_{i+k})``; any other tuple is walked.  This is the only
module that imports both routes, and neither route imports the other.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .apery import apery_set
from .closed_forms import CaseTag, NotCoveredError, closed_g, closed_n, triple
from .generators import DegenerateTupleError, GeneratorTuple
from .sequences import SequenceKind

__all__ = ["Computation", "compute", "compute_g", "compute_n"]


class Computation(NamedTuple):
    """A value plus the route that produced it."""

    value: int
    path: str  # "closed" or "oracle"
    tag: Optional[CaseTag]


_QUANTITIES = ("g", "n")
_METHODS = ("auto", "closed", "oracle")


def compute(
    quantity: str,
    gens: "GeneratorTuple | Iterable[int]",
    p: int,
    method: str = "auto",
    family: "Optional[tuple[SequenceKind | str, int, int]]" = None,
) -> Computation:
    """``g_p`` (``quantity="g"``) or ``n_p`` (``"n"``) of ``gens``.

    ``family`` is the ``(kind, i, k)`` whose :func:`~froblab.closed_forms.triple`
    is ``gens``, or ``None`` for a tuple given by its generators, which no
    closed form covers; a ``family`` whose triple is not ``gens`` raises
    :class:`ValueError`.  Raises :class:`NotCoveredError` under
    ``method="closed"`` where no branch covers the point, and
    :class:`DegenerateTupleError` under every method when the smallest
    generator is 1.
    """
    if quantity not in _QUANTITIES:
        raise ValueError(f"quantity must be one of {_QUANTITIES}, got {quantity!r}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    tup = GeneratorTuple(gens)
    if family is not None and (named := triple(*family)) != tup:
        raise ValueError(f"family {tuple(family)} names {named}, not {tup}")
    # Before the closed-form refusal, so that a degenerate tuple says so.
    if tup.a1 == 1:
        raise DegenerateTupleError(f"smallest generator of {tup} is 1")
    if method != "oracle":
        if family is None:
            reason = "closed forms exist only for --kind triples"
        else:
            res = (closed_g if quantity == "g" else closed_n)(*family, p)
            if res.covered:
                return Computation(res.value, "closed", res.tag)
            reason = res.tag.branch
        if method == "closed":
            raise NotCoveredError(reason)
    aset = apery_set(tup, p)
    return Computation(aset.frobenius() if quantity == "g" else aset.sylvester(), "oracle", None)


def compute_g(
    kind: "SequenceKind | str", i: int, k: int, p: int, method: str = "auto"
) -> Computation:
    """Largest value for the triple; closed form when possible under ``auto``."""
    return compute("g", triple(kind, i, k), p, method, (kind, i, k))


def compute_n(
    kind: "SequenceKind | str", i: int, k: int, p: int, method: str = "auto"
) -> Computation:
    """Count of low-representation integers for the triple."""
    return compute("n", triple(kind, i, k), p, method, (kind, i, k))
