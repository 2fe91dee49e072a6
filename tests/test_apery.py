from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from froblab.apery import VALUE_BUDGET, _check_budget, apery_levels
from froblab.denumerant import denumerant, denumerant_table, p_frobenius_scan, p_sylvester_scan
from froblab.closed_forms import params
from froblab.generators import DegenerateTupleError, GeneratorTuple
from froblab.sequences import fib

F6_TRIPLE = GeneratorTuple((8, 21, 55))


def test_smallest_two_generator_case():
    (aset,) = apery_levels((2, 3), 0)
    assert aset.elements == (0, 3)
    assert aset.frobenius() == 1
    assert aset.sylvester() == 1
    assert p_sylvester_scan((2, 3), 0) == 1


def test_level_zero_has_zero_for_residue_zero():
    for gens in ((2, 3), (3, 4, 5), (8, 21, 55)):
        assert apery_levels(gens, 0)[0].elements[0] == 0


def test_degenerate_tuple_rejected():
    with pytest.raises(DegenerateTupleError):
        apery_levels((1, 3), 0)
    with pytest.raises(DegenerateTupleError):
        apery_levels((1, 5, 7), 2)


def test_negative_level_rejected():
    with pytest.raises(ValueError, match="p_max must be >= 0"):
        apery_levels((2, 3), -1)
    with pytest.raises(ValueError):
        p_frobenius_scan((2, 3), -2)


def test_worked_example_apery_levels():
    expected = {
        0: {0, 21, 42, 55, 76, 97, 110, 131},
        1: {63, 84, 105, 118, 139, 152, 165, 186},
        2: {126, 147, 160, 173, 194, 207, 220, 241},
        3: {168, 181, 202, 215, 228, 249, 262, 275},
        4: {189, 210, 223, 236, 257, 270, 283, 296},
    }
    levels = apery_levels(F6_TRIPLE, 4)
    for p, want in expected.items():
        assert set(levels[p].elements) == want


def test_worked_example_derived_quantities():
    levels = apery_levels(F6_TRIPLE, 4)
    assert [aset.frobenius() for aset in levels] == [123, 178, 233, 267, 288]
    assert [aset.sylvester() for aset in levels] == [63, 123, 180, 219, 242]


def test_scan_route_matches_worked_example():
    assert p_frobenius_scan(F6_TRIPLE, 2) == 233
    assert p_frobenius_scan(F6_TRIPLE, 0) == 123
    assert p_sylvester_scan(F6_TRIPLE, 1) == 123
    assert p_sylvester_scan(F6_TRIPLE, 4) == 242


def test_scan_two_generator_level_one():
    # d(7; 2,3) = 1 and every n >= 8 has at least two representations,
    # in line with the pair formula (p+1)ab - a - b = 2*6 - 5 = 7.
    assert p_frobenius_scan((2, 3), 1) == 7
    assert apery_levels((2, 3), 1)[1].frobenius() == 7


def test_elements_satisfy_defining_inequalities():
    for gens in ((2, 5, 7), (8, 21, 55), (3, 4, 5)):
        tup = GeneratorTuple(gens)
        for p, aset in enumerate(apery_levels(tup, 3)):
            for j, m in enumerate(aset.elements):
                assert m % tup.a1 == j
                assert denumerant(m, tup) >= p + 1
                if m >= tup.a1:
                    assert denumerant(m - tup.a1, tup) <= p


def test_two_generator_closed_form_against_scan():
    for a in range(2, 21):
        for b in range(a + 1, 21):
            if gcd(a, b) != 1:
                continue
            for p, aset in enumerate(apery_levels((a, b), 5)):
                g = (p + 1) * a * b - a - b
                assert p_frobenius_scan((a, b), p) == g
                # a pair is the walk's closed-form lists of a_1, a_2 and nothing else
                assert aset.frobenius() == g
                assert 2 * aset.sylvester() == (2 * p + 1) * a * b - a - b + 1


TUPLE_POOL = [
    (2, 3),
    (2, 5, 7),
    (3, 4, 5),
    (5, 8, 9, 12),
    (6, 10, 15),  # no coprime pair: +10 and +15 split the residues mod 6 into cycles
    (8, 21, 55),
    (7, 11),
]


@pytest.mark.parametrize("gens", TUPLE_POOL)
@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_routes_agree(gens, p):
    aset = apery_levels(gens, p)[p]
    assert aset.frobenius() == p_frobenius_scan(gens, p)
    assert aset.sylvester() == p_sylvester_scan(gens, p)


def test_monotone_tail_beyond_frobenius():
    for gens in ((2, 5, 7), (3, 4, 5), (8, 21, 55)):
        tup = GeneratorTuple(gens)
        for p, aset in enumerate(apery_levels(tup, 2)):
            g = aset.frobenius()
            for n in range(g + 1, g + 3 * tup.a1 + 1):
                assert denumerant(n, tup) >= p + 1


@st.composite
def random_tuple(draw):
    length = draw(st.integers(min_value=2, max_value=4))
    gens = draw(
        st.lists(
            st.integers(min_value=2, max_value=30),
            min_size=length,
            max_size=length,
            unique=True,
        )
    )
    g = 0
    for a in gens:
        g = gcd(g, a)
    if g != 1:
        gens.append(g + 1)  # force overall coprimality
    return tuple(sorted(set(gens)))


@settings(max_examples=40, deadline=None)
@given(random_tuple(), st.integers(min_value=0, max_value=3))
def test_completeness_and_agreement_on_random_tuples(gens, p):
    tup = GeneratorTuple(gens)
    aset = apery_levels(tup, p)[p]
    assert sorted(m % tup.a1 for m in aset.elements) == list(range(tup.a1))
    assert aset.frobenius() == p_frobenius_scan(tup, p)
    assert aset.sylvester() == p_sylvester_scan(tup, p)


def _scan_elements(gens: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Least n with more than p representations in each residue class mod a_1,
    read off the dense count table (the window doubles until all are found)."""
    a1 = gens[0]
    cap = (p + 1) * gens[0] * gens[1]
    while True:
        found: dict[int, int] = {}
        for n, c in enumerate(denumerant_table(cap, gens).counts):
            if c > p:
                found.setdefault(n % a1, n)
        if len(found) == a1:
            return tuple(found[j] for j in range(a1))
        cap *= 2


coprime_tuples = (
    st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=5, unique=True)
    .filter(lambda gens: gcd(*gens) == 1)
    .map(lambda gens: tuple(sorted(gens)))
)


@settings(max_examples=60, deadline=None)
@given(coprime_tuples, st.integers(min_value=0, max_value=10))
@example((6, 10, 15), 10)
@example((4, 6, 9), 10)
@example((7, 10, 12, 15), 10)
def test_residue_walk_matches_dense_count_scan(gens, p_max):
    levels = apery_levels(gens, p_max)
    assert [aset.p for aset in levels] == list(range(p_max + 1))
    for p, aset in enumerate(levels):
        assert aset.elements == _scan_elements(gens, p), (gens, p)
        assert aset.elements == apery_levels(gens, p)[p].elements


def _assert_walk_matches_scan(gens, p_max):
    levels = apery_levels(gens, p_max)
    assert len(levels) == p_max + 1
    for p, aset in enumerate(levels):
        assert len(aset.elements) == gens[0], (gens, p)
        assert aset.elements == _scan_elements(gens, p), (gens, p)


# Which case reaches which branch of the walk, read off a line trace of
# _apery_elements once:
# - a1 and a2 are written down as one cycle through 0: a pair is nothing
#   else, and with a2 ≡ 0 that cycle has length 1 (2, 4, 5);
# - every later pass first reads those ranges; a pass after the third
#   generator reads tuples: (5, 8, 9, 12) and (12, 16, 18, 27);
# - a start settled from the head lists without a merge: (8, 21, 55), which
#   never merges, and (10, 12, 13), (5, 8, 9, 12), (12, 16, 18, 27);
# - the list of the keep-th least head supplies one of the keep least
#   arrivals: (5, 6, 7) at p_max = 2 (one list fewer gives wrong elements);
# - a first lap that cuts later lists below its keep-th least value, on a
#   cycle of fewer lists than keep: (8, 21, 55) at p_max = 40 (8 lists,
#   seven cut, 187 values left unread), and a lap that stops at a list the
#   cut empties: (8, 21, 55) at 4, (10, 12, 13), (5, 8, 9, 12);
# - the heapq.merge fallback: (2, 5, 13) at a deep p_max, whose keep values
#   span many laps, and every case with fewer values on a cycle than keep;
# - cycles with fewer non-empty lists than p_max + 1 though no shorter, since
#   gcd(a1, a2) > 1: (10, 12, 13) (5 of 10) and (12, 16, 18, 27);
# - cycles of length 1 in a later pass (a_j ≡ 0 mod a1): (3, 4, 6), (2, 3, 6),
#   (3, 5, 9);
# - cycles with no value at all: (12, 16, 18, 27), where 16 and 18 reach only
#   even residues and +18 splits the residues mod 12 into six cycles;
# - several cycles of length > 1: (6, 10, 15), three on 15;
# - equal values piled up at one residue: (3, 4, 6), (2, 3, 6).
@pytest.mark.parametrize(
    "gens, p_max",
    [
        ((2, 3), 10),
        ((7, 11), 10),
        ((4, 9), 10),
        ((4, 6, 9), 10),
        ((6, 10, 15), 10),
        ((3, 6, 7), 10),
        ((2, 4, 5), 10),
        ((3, 4, 6), 12),
        ((2, 3, 6), 12),
        ((3, 5, 9), 12),
        ((8, 21, 55), 4),
        ((8, 21, 55), 40),
        ((5, 6, 7), 2),
        ((2, 5, 13), 30),
        ((10, 12, 13), 6),
        ((5, 8, 9, 12), 10),
        ((12, 16, 18, 27), 3),
    ],
)
def test_walk_branches_match_dense_count_scan(gens, p_max):
    _assert_walk_matches_scan(gens, p_max)


def test_walk_matches_dense_count_scan_on_family_triples():
    cases = [("fib", i) for i in range(3, 9)] + [("lucas", i) for i in range(3, 8)]
    for kind, i in cases:
        for k in range(3, i + 6):
            _assert_walk_matches_scan(params(kind, i, k).gens, 6)


def test_a_huge_third_generator_leaves_the_pair_levels():
    # fib(19014) has 3,974 digits, far above every element of the pair's first
    # levels, so it adds none there; its lap is stepped by count, not by value.
    pair = [aset.elements for aset in apery_levels((fib(14), fib(16)), 2)]
    assert [aset.elements for aset in apery_levels((fib(14), fib(16), fib(19014)), 2)] == pair


def test_walk_refuses_over_budget_before_allocating():
    # a1 * (p_max + 2): 2000000014 here, far past the budget.
    with pytest.raises(ValueError, match="over the budget"):
        apery_levels((1000000007, 1000000009), 0)
    # The charge is (a1 + 11)*(p_max + 2) + a1*p_max//3: the least a1 refused
    # at p_max = 10 (12*326090 + 1086930 = 5000010), and at p_max = 0, where
    # the third adds nothing; one less is admitted.
    for a1, p_max in ((326079, 10), (VALUE_BUDGET // 2 + 1 - 11, 0)):
        with pytest.raises(ValueError, match="over the budget"):
            apery_levels((a1, a1 + 1), p_max)
        _check_budget(a1 - 1, p_max)
    # at a1 = 2 the per-level charge sets the top level: 13*365853 + 243900 = 4999989
    _check_budget(2, 365851)
    with pytest.raises(ValueError, match=r"\(a_1\+11\)\*\(p_max\+2\) \+ a_1\*p_max//3 = 5000003, over"):
        _check_budget(2, 365852)


def test_level_monotonicity_on_family_triples():
    # m_j^(p+1) >= m_j^(p) + a_1 holds across the Fibonacci/Lucas sweep
    # ranges (it is *not* a theorem for arbitrary tuples: {3,4,5} violates
    # it at level 4 where one count jumps by two).
    cases = [("fib", i, k) for i in range(3, 9) for k in range(3, i + 4)]
    cases += [("lucas", i, k) for i in range(3, 7) for k in range(3, i + 4)]
    for kind, i, k in cases:
        tup = params(kind, i, k).gens
        prev, *rest = apery_levels(tup, 3)
        for cur in rest:
            for j in range(tup.a1):
                assert cur.elements[j] >= prev.elements[j] + tup.a1
            assert cur.frobenius() > prev.frobenius()
            assert cur.sylvester() >= prev.sylvester() + 1
            prev = cur


def test_general_tuple_monotonicity_is_genuinely_weaker():
    # The documented counterexample: for {3,4,5} the residue-2 class jumps
    # straight from 4 to 6 representations at n=20, so levels 4 and 5
    # share an element and the "+ a_1" step fails off the triple families.
    assert denumerant(17, (3, 4, 5)) == 4
    assert denumerant(20, (3, 4, 5)) == 6
    levels = apery_levels((3, 4, 5), 5)
    assert levels[4].elements[2] == 20
    assert levels[5].elements[2] == 20
