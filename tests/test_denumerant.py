import pytest
from hypothesis import given, settings, strategies as st

from froblab.denumerant import denumerant, denumerant_table, largest_with_exactly_p
from froblab.generators import GeneratorTuple, TupleValidationError


# ---------------------------------------------------------------- validation

def test_tuple_sorted_regardless_of_input_order():
    assert GeneratorTuple((55, 8, 21)).gens == (8, 21, 55)
    assert GeneratorTuple.of(7, 2, 5).a1 == 2


@pytest.mark.parametrize(
    "gens",
    [
        (4, 6),          # gcd 2
        (2,),            # too short
        (2, 2, 5),       # duplicate
        (0, 3),          # nonpositive
        (-2, 3),         # negative
        (2.0, 5, 7),     # non-int
        (True, 3),       # bool is not a generator
    ],
)
def test_tuple_rejects_bad_input(gens):
    with pytest.raises(TupleValidationError):
        GeneratorTuple(gens)


def test_non_coprime_pair_is_fine_if_overall_gcd_is_one():
    # No coprime pair exists here, yet the tuple as a whole is valid.
    assert GeneratorTuple((6, 10, 15)).gens == (6, 10, 15)


# ------------------------------------------------------------------ counting

def test_denumerant_basics():
    assert denumerant(0, (2, 5, 7)) == 1
    assert denumerant(1, (2, 5, 7)) == 0
    # 10 = 2*5 = 5*2: exactly the solutions (5,0,0) and (0,2,0)
    assert denumerant(10, (2, 5, 7)) == 2


def test_table_matches_pointwise():
    table = denumerant_table(10, (2, 5, 7))
    assert table.counts[10] == 2
    assert table.count(0) == 1
    assert [table.count(n) for n in range(11)] == [
        denumerant(n, (2, 5, 7)) for n in range(11)
    ]


def test_table_limit_zero():
    assert denumerant_table(0, (3, 5)).counts == [1]


def test_table_rejects_negative_limit():
    with pytest.raises(ValueError):
        denumerant_table(-1, (2, 3))


def test_fibonacci_triple_gap_structure():
    # 131 is representable over (8,21,55) while 123 is the largest gap.
    table = denumerant_table(131, (8, 21, 55))
    assert table.counts[131] >= 1
    assert table.counts[123] == 0


def _brute_force_count(n, gens):
    # direct bounded enumeration, no DP: the independent cross-check
    def rec(idx, remaining):
        if idx == len(gens) - 1:
            return 1 if remaining % gens[idx] == 0 else 0
        g = gens[idx]
        return sum(rec(idx + 1, remaining - g * x) for x in range(remaining // g + 1))

    return rec(0, n)


small_tuples = st.sampled_from(
    [(2, 3), (2, 5, 7), (3, 4, 5), (3, 7), (5, 6, 9), (4, 7, 9), (2, 9), (6, 10, 15)]
)


@settings(max_examples=60, deadline=None)
@given(small_tuples, st.integers(min_value=0, max_value=200))
def test_dp_equals_bounded_enumeration(gens, n):
    assert denumerant(n, gens) == _brute_force_count(n, gens)


@settings(max_examples=30, deadline=None)
@given(small_tuples, st.integers(min_value=0, max_value=150))
def test_superadditive_under_generator_inclusion(gens, n):
    if len(gens) < 3:
        return
    sub = gens[:-1]
    try:
        GeneratorTuple(sub)
    except TupleValidationError:
        return  # the prefix may lose coprimality; nothing to compare then
    assert denumerant(n, sub) <= denumerant(n, gens)


# -------------------------------------------------------- exact-count search

def test_largest_with_exactly_p_anecdote():
    gens = GeneratorTuple.of(2, 5, 7)
    for p, expected in ((17, 43), (18, 42), (22, None)):
        assert largest_with_exactly_p(gens, p) == expected


def test_largest_with_exactly_p_two_generators():
    # For (2,3) the level-1 ceiling is 7: d(7)=1 and every n >= 8 has d >= 2.
    assert largest_with_exactly_p((2, 3), 1) == 7


def test_largest_with_exactly_zero():
    assert largest_with_exactly_p((2, 3), 0) == 1


def test_largest_rejects_negative_p():
    with pytest.raises(ValueError):
        largest_with_exactly_p((2, 3), -1)
