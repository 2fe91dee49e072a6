from math import gcd

import pytest
from hypothesis import given, strategies as st

from froblab.sequences import MAX_INDEX, SequenceKind, fib, lucas, seq


def test_fib_seed_values():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(2) == 1 == fib(1)


def test_fib_known_terms():
    assert fib(6) == 8
    assert fib(8) == 21
    assert fib(10) == 55


def test_lucas_seed_and_known_terms():
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert [lucas(n) for n in range(6)] == [2, 1, 3, 4, 7, 11]


def test_recurrence_up_to_200():
    for n in range(2, 201):
        assert fib(n) == fib(n - 1) + fib(n - 2)
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


@pytest.mark.parametrize("term, seeds", [(fib, (0, 1)), (lucas, (2, 1))])
def test_terms_match_the_plain_recurrence(term, seeds):
    a, b = seeds
    for n in range(MAX_INDEX + 1):
        if n <= 2000 or n == MAX_INDEX:
            assert term(n) == a, n
        a, b = b, a + b


def test_lucas_is_the_sum_of_the_fibonacci_neighbours():
    for n in range(1, 2001):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


def test_triple_identity():
    # fib(i+k) = fib(i+2)*fib(k) - fib(i)*fib(k-2): the identity that turns
    # the grid value x*F_{i+2} + y*F_{i+k} into (x+y*F_k)*F_{i+2} - y*F_{k-2}*F_i.
    for i in range(3, 41):
        for k in range(3, 41):
            assert fib(i + k) == fib(i + 2) * fib(k) - fib(i) * fib(k - 2)


def test_lucas_shift_identity():
    for m in range(3, 41):
        for n in range(m, 41):
            assert lucas(n) == lucas(m) * fib(n - m + 1) + lucas(m - 1) * fib(n - m)


def test_coprimality_two_apart():
    for i in range(3, 41):
        assert gcd(fib(i), fib(i + 2)) == 1
        assert gcd(lucas(i), lucas(i + 2)) == 1


def test_seq_dispatch():
    assert seq(SequenceKind.FIBONACCI, 10) == 55
    assert seq("fib", 10) == 55
    assert seq("lucas", 0) == 2
    assert seq("lucas", 5) == 11


def test_kind_parse_rejects_unknown():
    with pytest.raises(ValueError):
        SequenceKind("tribonacci")


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        lucas(-3)


@pytest.mark.parametrize("term", [fib, lucas])
@pytest.mark.parametrize("n, error, message", [
    (True, TypeError, "index must be an int, got True"),
    (2.0, TypeError, "index must be an int, got 2.0"),
    (-3, ValueError, "index must be >= 0, got -3"),
    (MAX_INDEX + 1, ValueError, "index 20001 is over the bound of 20000"),
])
def test_refused_index_keeps_its_message(term, n, error, message):
    with pytest.raises(error) as info:
        term(n)
    assert str(info.value) == message


@given(st.integers(min_value=2, max_value=500))
def test_fib_lucas_product_identity(n):
    # L_n * F_n = F_2n, a classical cross-check of one sequence against the other.
    assert lucas(n) * fib(n) == fib(2 * n)


@given(st.integers(min_value=0, max_value=400))
def test_cached_terms_are_stable(n):
    assert fib(n) == fib(n)
    assert lucas(n) == lucas(n)
