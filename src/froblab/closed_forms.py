"""Closed forms for Fibonacci and Lucas triples ``(x_i, x_{i+2}, x_{i+k})``.

For these two families the level-p Frobenius number, and for the
Fibonacci family also the level-p Sylvester count, admit explicit
formulas on certain index regions.  Coverage is deliberately partial:
each branch applies only where it is known to hold, and anything outside
comes back as *not covered* so the caller can fall back to the
exhaustive Apery-set oracle, as :mod:`froblab.route` does.  Nothing here
imports another route.

Every result carries a :class:`CaseTag` naming the branch that produced
it.  Three Sylvester branches and the pair-reduction Proposition are
flagged ``verbatim``: they are kept exactly as given even though
verification sweeps show they disagree with the oracle on part of their
range (the Proposition at fib ``i=3, k=10, p=23`` only).  For those
branches the sweep report, not a silent rewrite, is the contract.

Index conventions used throughout: ``i, k >= 3``; the splitting
parameters are ``r, ell = divmod(x_i - 1, fib(k))`` — note ``fib(k)``
even in the Lucas family.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .generators import GeneratorTuple
from .sequences import SequenceKind, fib, seq

__all__ = [
    "NotCoveredError",
    "TripleParams",
    "CaseTag",
    "FormulaResult",
    "BranchDiscriminant",
    "params",
    "triple",
    "discriminant",
    "gp_fib",
    "gp_lucas",
    "np_fib",
    "np_lucas",
    "gp_fib_two_gen",
    "proposition_h",
    "closed_g",
    "closed_n",
]


class NotCoveredError(ValueError):
    """A closed form was demanded for indices no branch covers."""


class TripleParams(NamedTuple):
    """Resolved data for one triple at one level.

    ``r`` counts how many full blocks of width ``fib(k)`` fit into
    ``x_i - 1`` and ``ell`` is what remains; together they locate the
    triple inside the branch tables below.
    """

    kind: SequenceKind
    i: int
    k: int
    p: int
    x_i: int
    x_i2: int
    x_ik: int
    r: int
    ell: int


def params(kind: "SequenceKind | str", i: int, k: int, p: int = 0) -> TripleParams:
    kind = SequenceKind.parse(kind)
    if i < 3:
        raise ValueError(f"i must be >= 3, got {i}")
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    x_i, x_i2, x_ik = seq(kind, i), seq(kind, i + 2), seq(kind, i + k)
    r, ell = divmod(x_i - 1, fib(k))
    return TripleParams(kind, i, k, p, x_i, x_i2, x_ik, r, ell)


def triple(kind: "SequenceKind | str", i: int, k: int) -> GeneratorTuple:
    """The generator tuple ``(x_i, x_{i+2}, x_{i+k})``, with the checks of :func:`params`."""
    pr = params(kind, i, k)
    return GeneratorTuple((pr.x_i, pr.x_i2, pr.x_ik))


class CaseTag(NamedTuple):
    """Identifies the branch a value came from, e.g. ``Thm3/k=i+1``.

    ``verbatim`` marks branches kept byte-for-byte as given; oracle
    disagreement on such a branch is reported by sweeps rather than
    corrected here.
    """

    theorem: str
    branch: str
    verbatim: bool = False

    def __str__(self) -> str:
        return f"{self.theorem}/{self.branch}"


_TAG_NONE = "none"


class _FormulaFields(NamedTuple):
    covered: bool
    value: Optional[int]
    tag: CaseTag


class FormulaResult(_FormulaFields):
    """A closed-form value, or ``None`` with ``covered`` false."""

    __slots__ = ()

    def __new__(cls, covered: bool, value: Optional[int], tag: CaseTag) -> "FormulaResult":
        if covered != (value is not None):
            raise AssertionError("covered flag must mirror presence of a value")
        return super().__new__(cls, covered, value, tag)

    @classmethod
    def _make(cls, iterable) -> "FormulaResult":
        # _replace builds through _make; keep the check on that path too.
        return cls(*iterable)


def _hit(theorem: str, branch: str, value: int, verbatim: bool = False) -> FormulaResult:
    return FormulaResult(True, value, CaseTag(theorem, branch, verbatim))


def _miss(reason: str) -> FormulaResult:
    return FormulaResult(False, None, CaseTag(_TAG_NONE, reason))


class BranchDiscriminant(NamedTuple):
    """The comparison that splits the general two-case formulas.

    ``lhs = (x_i - r*fib(k)) * x_{i+2}`` and ``rhs = fib(k-2) * x_i``.
    Some branch tables split on ``lhs >= rhs``, one on strict
    ``lhs > rhs``, so both readings are exposed.
    """

    lhs: int
    rhs: int

    @property
    def first(self) -> bool:
        return self.lhs >= self.rhs

    @property
    def strictly_first(self) -> bool:
        return self.lhs > self.rhs


def discriminant(pr: TripleParams) -> BranchDiscriminant:
    return BranchDiscriminant(
        (pr.x_i - pr.r * fib(pr.k)) * pr.x_i2, fib(pr.k - 2) * pr.x_i
    )


def _half(x: int) -> int:
    q, rem = divmod(x, 2)
    if rem:
        raise AssertionError(f"expected an even intermediate value, got {x}")
    return q


def _gp_general(pr: TripleParams, theorem: str) -> FormulaResult:
    """The uniform two-case largest-value formula (needs ``r >= p``).

    Which of the two cases fired is recoverable from :func:`discriminant`;
    the tag names only the branch family.
    """
    fk = fib(pr.k)
    if discriminant(pr).first:
        v = (pr.x_i - pr.r * fk - 1) * pr.x_i2 + (pr.r + pr.p) * pr.x_ik - pr.x_i
    else:
        v = (fk - 1) * pr.x_i2 + (pr.r + pr.p - 1) * pr.x_ik - pr.x_i
    return _hit(theorem, "general", v)


def _np_general(pr: TripleParams, theorem: str) -> FormulaResult:
    """The uniform averaged-count formula (needs ``r >= p``)."""
    fk, fk2 = fib(pr.k), fib(pr.k - 2)
    base = _half((pr.x_i + 2 * pr.p * fk - 1) * pr.x_i2 - pr.x_i + 1)
    corr = _half((2 * pr.r * pr.x_i - (pr.r + pr.p + 1) * (pr.r - pr.p) * fk) * fk2)
    return _hit(theorem, "general", base - corr)


def gp_fib_two_gen(i: int, p: int) -> int:
    """Largest value for the pair ``(fib(i), fib(i+2))`` alone."""
    if i < 3:
        raise ValueError(f"i must be >= 3, got {i}")
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    return (p + 1) * fib(i) * fib(i + 2) - fib(i) - fib(i + 2)


# For these levels p, the third generator stops mattering as soon as
# k >= i + h: the triple's largest value equals the two-generator one.
_PROP_H = {
    3: 4, 4: 4,
    5: 5, 6: 5, 7: 5, 8: 5,
    9: 6, 10: 6, 11: 6, 12: 6, 13: 6, 14: 6,
    15: 7, 16: 7, 17: 7, 18: 7, 19: 7, 20: 7, 21: 7, 22: 7, 23: 7,
    24: 8,
}


def proposition_h(p: int) -> Optional[int]:
    """Threshold ``h`` such that ``k >= i + h`` reduces to the pair, if known."""
    return _PROP_H.get(p)


def gp_fib(i: int, k: int, p: int) -> FormulaResult:
    """Closed-form largest value for the Fibonacci triple, when covered."""
    pr = params(SequenceKind.FIBONACCI, i, k, p)
    Fi, Fi2, Fik = pr.x_i, pr.x_i2, pr.x_ik

    if p == 1:
        if k >= i + 2:
            return _hit("Thm2", "k>=i+2", (2 * Fi - 1) * Fi2 - Fi)
        if k == i + 1:
            return _hit("Thm2", "k=i+1", (fib(i - 2) - 1) * Fi2 + Fik - Fi)
        if k == i:
            return _hit("Thm2", "k=i", (Fi - 1) * Fi2 + Fik - Fi)
        if pr.r >= 1:  # always true for k <= i-1
            return _gp_general(pr, "Thm2")
        return _miss(f"fib g: p=1 uncovered at i={i} k={k}")

    if p == 2:
        if k >= i + 3:
            return _hit("Thm3", "k>=i+3", (3 * Fi - 1) * Fi2 - Fi)
        if k == i + 2:
            if i % 2 == 1:
                return _hit("Thm3", "k=i+2 odd i", (fib(i - 2) - 1) * Fi2 + Fik - Fi)
            return _hit("Thm3", "k=i+2 even i", (Fi2 - 1) * Fi2 - Fi)
        if k == i + 1:
            return _hit("Thm3", "k=i+1", (Fi - 1) * Fi2 + Fik - Fi)
        if k == i:
            return _hit("Thm3", "k=i", (2 * Fi - 1) * Fi2 - Fi)
        if k == i - 1:
            if i >= 5:
                return _hit("Thm3", "k=i-1", (fib(i - 4) - 1) * Fi2 + 3 * Fik - Fi)
            return _hit("Thm3", "k=i-1 i=4", Fi2 + 2 * Fik - Fi)
        if pr.r >= 2:  # always true for k <= i-2
            return _gp_general(pr, "Thm3")
        return _miss(f"fib g: p=2 uncovered at i={i} k={k}")

    if p == 3:
        if k >= i + 3:
            res = _hit("Thm4", "k>=i+3", (4 * Fi - 1) * Fi2 - Fi)
            # The pair-reduction row for p=3 starts at k = i+4; where both
            # claims apply they must agree, so check instead of choosing.
            if k >= i + _PROP_H[3] and res.value != gp_fib_two_gen(i, p):
                raise AssertionError(
                    f"pair reduction disagrees with the p=3 branch at i={i} k={k}"
                )
            return res
        if k == i + 2:
            return _hit("Thm4", "k=i+2", (Fi - 1) * Fi2 + Fik - Fi)
        if k == i + 1:
            return _hit("Thm4", "k=i+1", (Fi + fib(i - 2) - 1) * Fi2 + Fik - Fi)
        if k == i:
            return _hit("Thm4", "k=i", (Fi - 1) * Fi2 + 2 * Fik - Fi)
        if k == i - 1:
            return _hit("Thm4", "k=i-1", (fib(i - 2) - 1) * Fi2 + 3 * Fik - Fi)
        if k == i - 2:
            if i >= 6:
                return _hit("Thm4", "k=i-2", (fib(i - 5) - 1) * Fi2 + 5 * Fik - Fi)
            return _hit("Thm4", "k=i-2 i=5", Fi2 + 4 * Fik - Fi)
        if pr.r >= 3:  # always true for k <= i-3
            return _gp_general(pr, "Thm4")
        return _miss(f"fib g: p=3 uncovered at i={i} k={k}")

    # p == 0 and p >= 4 share the uniform statement: it needs r >= p and
    # excludes the (r, p) = (0, 0) corner.
    if pr.r >= p and (pr.r, p) != (0, 0):
        return _gp_general(pr, "Thm5")
    h = proposition_h(p)
    if h is not None and k >= i + h:
        return _hit("Prop", f"k>=i+{h}", gp_fib_two_gen(i, p), verbatim=True)
    return _miss(f"fib g: uncovered at i={i} k={k} p={p} (r={pr.r})")


def gp_lucas(i: int, k: int, p: int) -> FormulaResult:
    """Closed-form largest value for the Lucas triple, when covered."""
    pr = params(SequenceKind.LUCAS, i, k, p)
    Li, Li2, Lik = pr.x_i, pr.x_i2, pr.x_ik
    fk, fk2 = fib(k), fib(k - 2)

    if p == 0:
        # This is the one table split on a strict comparison.
        if pr.r == 0 or discriminant(pr).strictly_first:
            return _hit("Thm1", "first case", (Li - 1) * Li2 - Li * (pr.r * fk2 + 1))
        return _hit(
            "Thm1", "second case", (pr.r * fk - 1) * Li2 - Li * ((pr.r - 1) * fk2 + 1)
        )

    if p == 1:
        if k >= i + 4:
            return _hit("Thm6", "k>=i+4", (2 * Li - 1) * Li2 - Li)
        if k == i + 3:
            return _hit("Thm6", "k=i+3", (fib(i + 3) - 1) * Li2 - Li)
        if k == i + 2:
            return _hit("Thm6", "k=i+2", (3 * fib(i - 1) - 1) * Li2 + Lik - Li)
        if pr.r >= 1:  # always true for k <= i+1
            return _gp_general(pr, "Thm6")
        return _miss(f"lucas g: p=1 uncovered at i={i} k={k}")

    if p == 2:
        if k >= i + 4:
            return _hit("Thm7", "k>=i+4", (3 * Li - 1) * Li2 - Li)
        if k == i + 3:
            return _hit("Thm7", "k=i+3", (Li - 1) * Li2 + Lik - Li)
        if k == i + 2:
            if i % 2 == 1:
                return _hit("Thm7", "k=i+2 odd i", (Li - 1) * Li2 + Lik - Li)
            return _hit("Thm7", "k=i+2 even i", (2 * Li - 1) * Li2 - Li)
        if k == i + 1:
            return _hit("Thm7", "k=i+1", (2 * fib(i - 1) - 1) * Li2 + 2 * Lik - Li)
        if k == i and i == 3:
            return _hit("Thm7", "k=i i=3", Li2 + 3 * Lik - Li)
        if pr.r >= 2:  # true for k <= i except the (i, k) = (3, 3) corner
            return _gp_general(pr, "Thm7")
        return _miss(f"lucas g: p=2 uncovered at i={i} k={k}")

    if p == 3:
        if k >= i + 5:
            return _hit("Thm8", "k>=i+5", (4 * Li - 1) * Li2 - Li)
        if k == i + 4:
            return _hit(
                "Thm8", "k=i+4", (4 * fib(i - 1) - fib(i - 2) - 1) * Li2 + Lik - Li
            )
        if k == i + 3:
            return _hit("Thm8", "k=i+3", (4 * fib(i + 1) - 1) * Li2 - Li)
        if k == i + 2:
            return _hit("Thm8", "k=i+2", (fib(i) + 2 * fib(i - 3) - 1) * Li2 + 2 * Lik - Li)
        if k == i + 1:
            return _hit("Thm8", "k=i+1", (fib(i - 1) - 1) * Li2 + 3 * Lik - Li)
        if k == i:
            if i >= 4:
                return _hit("Thm8", "k=i", (2 * fib(i - 3) - 1) * Li2 + 4 * Lik - Li)
            return _hit("Thm8", "k=i i=3", 3 * Li2 + 2 * Lik - Li)
        if pr.r >= 3:  # always true for k <= i-1
            return _gp_general(pr, "Thm8")
        return _miss(f"lucas g: p=3 uncovered at i={i} k={k}")

    if pr.r >= p and (pr.r, p) != (0, 0):
        return _gp_general(pr, "Thm9")
    return _miss(f"lucas g: uncovered at i={i} k={k} p={p} (r={pr.r})")


def np_fib(i: int, k: int, p: int) -> FormulaResult:
    """Closed-form count of low-representation integers, Fibonacci triples."""
    pr = params(SequenceKind.FIBONACCI, i, k, p)
    Fi, Fi2, Fik = pr.x_i, pr.x_i2, pr.x_ik

    if p == 1:
        if k >= i + 2:
            return _hit("N1", "k>=i+2", _half(3 * Fi * Fi2 - Fi - Fi2 + 1))
        if k in (i, i + 1):
            v = _half(3 * Fi * Fi2 - Fi - Fi2 + 1) - (2 * Fi - fib(k)) * fib(k - 2)
            return _hit("N1", "k=i or k=i+1", v)
        if pr.r >= 1:
            return _np_general(pr, "N1")
        return _miss(f"fib n: p=1 uncovered at i={i} k={k}")

    if p == 2:
        if k >= i + 3:
            return _hit("N2", "k>=i+3", _half(5 * Fi * Fi2 - Fi - Fi2 + 1))
        if k == i + 2:
            return _hit("N2", "k=i+2", _half((7 * Fi2 - 6 * Fi - 1) * Fi - Fi2 + 1))
        if k == i + 1:
            return _hit("N2", "k=i+1", _half((7 * Fi2 - 8 * Fi - 1) * Fi - Fi2 + 1))
        if k == i:
            return _hit("N2", "k=i", _half(3 * Fi * Fi2 - Fi - Fi2 + 1))
        if k == i - 1:
            v = _half((170 * Fi - 1) * Fi + (24 * Fi2 - 125 * Fi - 1) * Fi2 + 1)
            return _hit("N2", "k=i-1", v, verbatim=True)
        if pr.r >= 2:
            return _np_general(pr, "N2")
        return _miss(f"fib n: p=2 uncovered at i={i} k={k}")

    if p == 3:
        if k >= i + 3:
            return _hit("N3", "k>=i+3", _half(7 * Fi * Fi2 - Fi - Fi2 + 1))
        if k == i + 2:
            return _hit("N3", "k=i+2", (Fi - 1) * Fi2 + Fik - Fi, verbatim=True)
        if k == i + 1:
            return _hit(
                "N3", "k=i+1", (Fi + fib(i - 2) - 1) * Fi2 + Fik - Fi, verbatim=True
            )
        if k == i:
            return _hit("N3", "k=i", _half((5 * Fi - 1) * Fi2 - Fi + 1) - 2 * Fi * fib(i - 2))
        if k == i - 1:
            v = _half((Fi + 4 * fib(i - 1) - 1) * Fi2 - Fi + 1) - 2 * fib(i - 1) * fib(i - 3)
            return _hit("N3", "k=i-1", v)
        if k == i - 2:
            v = _half((3 * Fi - 1) * Fi2 - Fi + 1) - (8 * Fi - 15 * fib(i - 2)) * fib(i - 4)
            return _hit("N3", "k=i-2", v)
        if pr.r >= 3:
            return _np_general(pr, "N3")
        return _miss(f"fib n: p=3 uncovered at i={i} k={k}")

    # p == 0 and p >= 4: the uniform statement covers every r >= p (no
    # corner exclusion here, unlike the largest-value formula).
    if pr.r >= p:
        return _np_general(pr, "Np")
    return _miss(f"fib n: uncovered at i={i} k={k} p={p} (r={pr.r})")


def np_lucas(i: int, k: int, p: int) -> FormulaResult:
    """No closed form is carried for Lucas counts; always a miss."""
    params(SequenceKind.LUCAS, i, k, p)  # still validate the indices
    return _miss(f"lucas n: no closed form at i={i} k={k} p={p}")


def closed_g(kind: "SequenceKind | str", i: int, k: int, p: int) -> FormulaResult:
    if SequenceKind.parse(kind) is SequenceKind.FIBONACCI:
        return gp_fib(i, k, p)
    return gp_lucas(i, k, p)


def closed_n(kind: "SequenceKind | str", i: int, k: int, p: int) -> FormulaResult:
    if SequenceKind.parse(kind) is SequenceKind.FIBONACCI:
        return np_fib(i, k, p)
    return np_lucas(i, k, p)
