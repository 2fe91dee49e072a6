"""The one map from a quantity to its two routes.

``g`` is :func:`~froblab.closed_forms.closed_g` or the walk's Apery set closed
by :meth:`~froblab.apery.AperySet.frobenius`, and ``n`` is ``closed_n`` or
:meth:`~froblab.apery.AperySet.sylvester`.  :func:`compute` picks a route for
each quantity of a point, from at most one walk; the CLI's ``verify`` sets both
side by side, ``exact`` reads the walk and a grid over a bound is refused before
its first walk, all through here.  A closed form exists only for a family triple
``(x_i, x_{i+2}, x_{i+k})``; any other tuple is walked.  Neither route imports
the other.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .apery import _check_budget, apery_levels
from .closed_forms import CaseTag, FormulaResult, NotCoveredError, TripleParams, closed_g, closed_n
from .generators import DegenerateTupleError, GeneratorTuple
from .sequences import _check_index, seq

__all__ = ["Computation", "compute"]


class Computation(NamedTuple):
    """A value plus the route that produced it."""

    value: int
    path: str  # "closed" or "oracle"
    tag: Optional[CaseTag]


# Each quantity's closed form, and its closing formula on a level-p Apery set.
# The method is looked up at each call, so a wrapper set on the class sees it.
_ROUTES = {
    "g": (closed_g, lambda aset: aset.frobenius()),
    "n": (closed_n, lambda aset: aset.sylvester()),
}
_QUANTITIES = tuple(_ROUTES)
_METHODS = ("auto", "closed", "oracle")


def compute(
    quantities: Sequence[str],
    source: "TripleParams | GeneratorTuple | Iterable[int]",
    p: int,
    method: str = "auto",
) -> tuple[Computation, ...]:
    """``g_p`` (``"g"``) and ``n_p`` (``"n"``) of ``source``, in the order of ``quantities``.

    ``source`` is a family triple's :class:`~froblab.closed_forms.TripleParams`,
    or a tuple given by its generators, which no closed form covers.  Every
    quantity that is not taken from a closed form is read off one walk, taken
    at the first such quantity.  Raises :class:`NotCoveredError` under
    ``method="closed"`` at the first quantity no branch covers,
    :class:`DegenerateTupleError` under every method when the smallest
    generator is 1, and ``ValueError`` under every method when ``p < 0`` or
    ``quantities`` is a string or names anything but ``"g"`` and ``"n"``.
    """
    if isinstance(quantities, str) or not set(quantities) <= set(_QUANTITIES):
        raise ValueError(f"quantities must be a sequence of {_QUANTITIES}, got {quantities!r}")
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    pr = source if isinstance(source, TripleParams) else None
    tup = GeneratorTuple(source) if pr is None else pr.gens
    # Before the closed-form refusal, so that a degenerate tuple says so.
    if tup.a1 == 1:
        raise DegenerateTupleError(f"smallest generator of {tup} is 1")
    aset = None
    out = []
    for quantity in quantities:
        closed, oracle = _ROUTES[quantity]
        if method != "oracle":
            if pr is None:
                reason = "closed forms exist only for --kind triples"
            else:
                res = closed(pr, p)
                if res.covered:
                    out.append(Computation(res.value, "closed", res.tag))
                    continue
                reason = res.tag.branch
            if method == "closed":
                raise NotCoveredError(reason)
        if aset is None:
            aset = apery_levels(tup, p)[p]
        out.append(Computation(oracle(aset), "oracle", None))
    return tuple(out)


def _side_by_side(pr: TripleParams, levels: Sequence[int], quantities: Iterable[str],
                  form: Optional[Callable] = None) -> Iterator[tuple[int, str, FormulaResult, int]]:
    """``(p, quantity, closed form's result, walk's value)`` at each of ``levels``
    (ascending), from one walk; ``form(pr, p)``, if given, stands in for the closed form."""
    asets = list(apery_levels(pr.gens, levels[-1]))
    for p in levels:
        aset, asets[p] = asets[p], None  # let a level go once read: rows take its place
        for quantity in quantities:
            closed, oracle = _ROUTES[quantity]
            yield p, quantity, (form or closed)(pr, p), oracle(aset)


def _largest_with_exactly(tup: GeneratorTuple, p: int) -> Optional[int]:
    """The largest integer with exactly ``p`` representations, if any, from one walk."""
    # In residue class j, d(n) counts the levels q with e_q(j) <= n, so with
    # e_{-1} := 0 the largest n there with exactly p is e_p(j) - a1 if >= e_{p-1}(j).
    levels = [s.elements for s in apery_levels(tup, p)]
    below = levels[-2] if p else (0,) * tup.a1
    return max((top - tup.a1 for low, top in zip(below, levels[-1]) if top - low >= tup.a1), default=None)


def _check_grid(kinds: Iterable[str], i_lo: int, i: int, k: int, p_max: int) -> None:
    """Refuse a grid whose least index ``i_lo`` is below 3, or whose largest triple
    ``(x_i, x_{i+2}, x_{i+k})`` of a kind in ``kinds`` is over a bound: the index
    bound on ``i + k`` before any term is computed, then the walk's on ``x_i``."""
    if i_lo < 3:
        raise ValueError(f"i must be >= 3, got {i_lo}")
    _check_index(i + k)
    for kind in kinds:
        _check_budget(seq(kind, i), p_max)
