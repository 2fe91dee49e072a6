"""The one place that picks a route to ``g_p`` or ``n_p``.

``method="closed"`` demands a closed form of :mod:`froblab.closed_forms`,
``"oracle"`` reads the Apery set that :mod:`froblab.apery` walks, and
``"auto"`` takes the closed form where a branch covers the point and walks
otherwise.  A closed form exists only for a family triple
``(x_i, x_{i+2}, x_{i+k})``; any other tuple is walked.  This is where
:func:`compute` picks a route, and neither route imports the other.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .apery import apery_levels
from .closed_forms import CaseTag, NotCoveredError, TripleParams, closed_g, closed_n
from .generators import DegenerateTupleError, GeneratorTuple

__all__ = ["Computation", "compute"]


class Computation(NamedTuple):
    """A value plus the route that produced it."""

    value: int
    path: str  # "closed" or "oracle"
    tag: Optional[CaseTag]


_QUANTITIES = ("g", "n")
_METHODS = ("auto", "closed", "oracle")


def compute(
    quantity: str,
    source: "TripleParams | GeneratorTuple | Iterable[int]",
    p: int,
    method: str = "auto",
) -> Computation:
    """``g_p`` (``quantity="g"``) or ``n_p`` (``"n"``) of ``source``.

    ``source`` is a family triple's :class:`~froblab.closed_forms.TripleParams`,
    or a tuple given by its generators, which no closed form covers.  Raises
    :class:`NotCoveredError` under ``method="closed"`` where no branch covers
    the point, :class:`DegenerateTupleError` under every method when the
    smallest generator is 1, and ``ValueError`` under every method when
    ``p < 0``.
    """
    if quantity not in _QUANTITIES:
        raise ValueError(f"quantity must be one of {_QUANTITIES}, got {quantity!r}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    pr = source if isinstance(source, TripleParams) else None
    tup = GeneratorTuple(source) if pr is None else pr.gens
    # Before the closed-form refusal, so that a degenerate tuple says so.
    if tup.a1 == 1:
        raise DegenerateTupleError(f"smallest generator of {tup} is 1")
    if method != "oracle":
        if pr is None:
            reason = "closed forms exist only for --kind triples"
        else:
            res = (closed_g if quantity == "g" else closed_n)(pr, p)
            if res.covered:
                return Computation(res.value, "closed", res.tag)
            reason = res.tag.branch
        if method == "closed":
            raise NotCoveredError(reason)
    aset = apery_levels(tup, p)[p]
    return Computation(aset.frobenius() if quantity == "g" else aset.sylvester(), "oracle", None)
