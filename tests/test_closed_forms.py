import pytest

from froblab.apery import p_frobenius, p_sylvester
from froblab.closed_forms import (
    CaseTag,
    FormulaResult,
    NotCoveredError,
    discriminant,
    gp_fib,
    gp_fib_two_gen,
    gp_lucas,
    np_fib,
    np_lucas,
    params,
    proposition_h,
    triple,
)
from froblab.cli import SweepSpec, run_sweep
from froblab.denumerant import denumerant, p_frobenius_scan
from froblab.generators import DegenerateTupleError
from froblab.route import compute, compute_g, compute_n
from froblab.sequences import fib, lucas


# ------------------------------------------------------------------- params

def test_params_worked_example():
    pr = params("fib", 6, 4)
    assert (pr.r, pr.ell) == (2, 1)
    assert (pr.x_i, pr.x_i2, pr.x_ik) == (8, 21, 55)


def test_params_r_zero_when_k_at_least_i():
    for i in range(3, 10):
        for k in range(i, i + 4):
            pr = params("fib", i, k)
            assert pr.r == 0
            assert pr.ell == fib(i) - 1


def test_params_lucas_smallest():
    pr = params("lucas", 3, 3)
    assert (pr.r, pr.ell) == (1, 1)


@pytest.mark.parametrize("i,k", [(2, 4), (3, 2), (0, 3), (3, -1)])
def test_params_domain_errors(i, k):
    with pytest.raises(ValueError):
        params("fib", i, k)


def test_formula_result_flag_must_mirror_value():
    with pytest.raises(AssertionError):
        FormulaResult(True, None, CaseTag("Thm2", "k=i"))
    with pytest.raises(AssertionError):
        FormulaResult(False, 5, CaseTag("none", "x"))


# ------------------------------------------------------------ two-gen + Prop

def test_two_generator_values_against_scan():
    assert gp_fib_two_gen(3, 0) == 3 == p_frobenius_scan((2, 5), 0)
    assert gp_fib_two_gen(4, 1) == 37 == p_frobenius_scan((3, 8), 1)
    assert gp_fib_two_gen(6, 0) == 139 == p_frobenius_scan((8, 21), 0)


def test_proposition_thresholds():
    assert proposition_h(3) == 4
    assert proposition_h(24) == 8
    assert proposition_h(100) is None
    for p in (0, 1, 2):
        assert proposition_h(p) is None
    values = [proposition_h(p) for p in range(3, 25)]
    assert None not in values
    assert values == sorted(values)  # thresholds can only grow with p


def test_pair_reduction_matches_p3_tail_branch():
    for i in range(3, 11):
        for k in range(i + 3, i + 7):
            assert gp_fib(i, k, 3).value == gp_fib_two_gen(i, 3)


def test_pair_reduction_covers_large_p_tails():
    res = gp_fib(5, 5 + 4, 4)  # p=4 threshold is h=4
    assert res.covered and res.tag.theorem == "Prop"
    assert res.value == gp_fib_two_gen(5, 4)
    assert not gp_fib(5, 5 + 3, 4).covered  # below threshold, r < p: a gap


def test_pair_reduction_fails_at_i3_p23():
    # fib i=3, k=10 is (2, 5, 233).  233 itself has 24 representations: 23
    # over the pair, plus x_{i+k} alone.  So the Proposition's 233 is not
    # g_23; 231, with 23, is.  The branch stays as published, flagged verbatim.
    tup = triple("fib", 3, 10)
    assert tup.gens == (2, 5, 233)
    assert denumerant(233, tup) == 24
    assert denumerant(231, tup) == 23
    assert p_frobenius(tup, 23) == p_frobenius_scan(tup, 23) == 231
    res = gp_fib(3, 10, 23)
    assert (res.value, str(res.tag)) == (233, "Prop/k>=i+7")


# ----------------------------------------------------- exceptional constants

def test_exceptional_constants_match_closed_form_and_oracle():
    cases = [
        (gp_fib, "fib", 4, 3, 2, 31),
        (gp_fib, "fib", 6, 3, 2, 183),
        (gp_fib, "fib", 6, 3, 1, 149),
        (gp_fib, "fib", 5, 3, 3, 92),
        (gp_lucas, "lucas", 3, 3, 2, 61),
    ]
    for fn, kind, i, k, p, expected in cases:
        assert fn(i, k, p).value == expected
        assert p_frobenius(triple(kind, i, k), p) == expected


def test_smallest_lucas_level3_constant_self_consistent():
    # The dedicated (i,k)=(3,3) branch 3*L_5 + 2*L_6 - L_3 evaluates to 65,
    # and the exhaustive oracle returns the same number.
    res = gp_lucas(3, 3, 3)
    assert res.value == 65
    assert p_frobenius(triple("lucas", 3, 3), 3) == 65


def test_lucas_level1_tail_value():
    # i=5, any k >= i+4: (2*L_5 - 1)*L_7 - L_5 = 21*29 - 11
    res = gp_lucas(5, 9, 1)
    assert res.value == 598
    assert p_frobenius(triple("lucas", 5, 9), 1) == 598


# ------------------------------------------------------- remark test vectors

def test_level1_remark_formulas_agree_with_dispatch():
    for i in range(4, 13):
        want = (fib(i - 2) - 1) * fib(i + 2) + 2 * fib(2 * i - 1) - fib(i)
        assert gp_fib(i, i - 1, 1).value == want
    for i in range(5, 13):
        want = (fib(i - 3) - 1) * fib(i + 2) + 3 * fib(2 * i - 2) - fib(i)
        assert gp_fib(i, i - 2, 1).value == want
    for i in range(7, 13):
        want = (fib(i - 6) - 1) * fib(i + 2) + 5 * fib(2 * i - 3) - fib(i)
        assert gp_fib(i, i - 3, 1).value == want
    assert gp_fib(6, 3, 1).value == fib(8) + 4 * fib(9) - fib(6) == 149
    for i in range(7, 13):
        want = (fib(i - 5) + fib(i - 7) - 1) * fib(i + 2) + 7 * fib(2 * i - 4) - fib(i)
        assert gp_fib(i, i - 4, 1).value == want
    for i in range(10, 14):
        want = (fib(i - 5) - 1) * fib(i + 2) + 11 * fib(2 * i - 5) - fib(i)
        assert gp_fib(i, i - 5, 1).value == want
    assert gp_fib(9, 4, 1).value == 12 * fib(13) - fib(9)
    assert gp_fib(8, 3, 1).value == 11 * fib(11) - fib(8)


def test_level2_remark_formulas_hold_at_their_r():
    for i in range(5, 13):
        pr = params("fib", i, i - 2, 2)
        assert pr.r == 2  # the remark formula is stated for r = 2
        want = (fib(i - 3) - 1) * fib(i + 2) + 4 * fib(2 * i - 2) - fib(i)
        assert gp_fib(i, i - 2, 2).value == want
    for i in range(7, 13):
        pr = params("fib", i, i - 3, 2)
        assert pr.r == 4  # and this one for r = 4
        want = (fib(i - 6) - 1) * fib(i + 2) + 6 * fib(2 * i - 3) - fib(i)
        assert gp_fib(i, i - 3, 2).value == want


# ----------------------------------------------------------- worked example

def test_worked_example_closed_forms():
    assert gp_fib(6, 4, 1).value == 178
    assert gp_fib(6, 4, 2).value == 233
    assert gp_fib(6, 4, 3).value == 267
    assert np_fib(6, 4, 1).value == 123
    assert np_fib(6, 4, 2).value == 180
    assert np_fib(6, 4, 3).value == 219


def test_case_tags_identify_branches():
    tag = gp_fib(6, 4, 2).tag
    assert tag.theorem == "Thm3"
    assert str(tag) == "Thm3/general"
    assert gp_fib(10, 13, 2).tag.branch == "k>=i+3"
    assert gp_lucas(4, 4, 0).tag.theorem == "Thm1"
    assert np_fib(6, 9, 1).tag.theorem == "N1"


def test_verbatim_flags_sit_exactly_where_intended():
    assert np_fib(6, 5, 2).tag.verbatim  # N2 at k=i-1
    assert np_fib(5, 7, 3).tag.verbatim  # N3 at k=i+2
    assert np_fib(5, 6, 3).tag.verbatim  # N3 at k=i+1
    assert not np_fib(5, 5, 3).tag.verbatim
    assert not gp_fib(6, 4, 2).tag.verbatim
    assert gp_fib(3, 10, 23).tag.verbatim  # Prop, which fails at this point


# ------------------------------------------------------------- the big sweep

def test_oracle_equivalence_fib_g():
    report = run_sweep(SweepSpec(("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("g",)))
    assert report.mismatches == []
    assert len(report.covered) == 407  # frozen: regression guard on coverage


def test_oracle_equivalence_lucas_g():
    report = run_sweep(SweepSpec(("lucas",), 3, 10, (None, 3), ("i", 5), 0, 3, ("g",)))
    assert report.mismatches == []
    assert report.oracle_only == []  # the four Lucas levels are fully covered


def test_oracle_equivalence_fib_n_reports_verbatim_branches():
    report = run_sweep(SweepSpec(("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("n",)))
    assert [r for r in report.mismatches if not r.verbatim] == []
    tags = {r.case_tag for r in report.verbatim_mismatches}
    assert tags == {"N3/k=i+1", "N3/k=i+2"}
    assert len(report.verbatim_mismatches) == 19
    # the N2 verbatim branch carries odd-looking coefficients but checks out
    assert all(r.case_tag != "N2/k=i-1" for r in report.mismatches)


def test_branch_totality_for_low_levels():
    for i in range(3, 13):
        for k in range(3, i + 6):
            for p in (1, 2, 3):
                assert gp_fib(i, k, p).covered
                assert np_fib(i, k, p).covered
            assert gp_fib(i, k, 0).covered == (params("fib", i, k).r >= 1)
    for i in range(3, 11):
        for k in range(3, i + 6):
            for p in (0, 1, 2, 3):
                assert gp_lucas(i, k, p).covered


def test_discriminant_equality_cases_match_oracle():
    # At k = i+4 (Fibonacci, r=0) both sides of the branch comparison are
    # equal: F_{k-2} = F_{i+2}.  These points must still agree with the
    # oracle through whatever branch handles them.
    found = 0
    for i in range(3, 9):
        for k in range(3, i + 6):
            for p in range(0, 4):
                pr = params("fib", i, k, p)
                d = discriminant(pr)
                if d.lhs != d.rhs:
                    continue
                found += 1
                res = gp_fib(i, k, p)
                if res.covered:
                    assert res.value == p_frobenius(triple("fib", i, k), p)
    assert found > 0  # the check has teeth in this range


# ------------------------------------------------------------ n_p specifics

def test_np_general_covers_level_zero():
    res = np_fib(5, 3, 0)
    assert res.covered and res.tag.theorem == "Np"
    assert res.value == p_sylvester(triple("fib", 5, 3), 0)


def test_np_lucas_never_covered():
    for i, k, p in [(3, 3, 0), (5, 7, 2), (4, 9, 1)]:
        res = np_lucas(i, k, p)
        assert not res.covered
        assert res.value is None


def test_fib_p0_r0_corner_not_covered():
    res = gp_fib(3, 3, 0)  # r = 0 at level 0: excluded corner
    assert not res.covered


# ----------------------------------------------------------- compute wrapper

def test_compute_prefers_closed_and_records_path():
    comp = compute_g("fib", 6, 4, 2)
    assert (comp.value, comp.path, str(comp.tag)) == (233, "closed", "Thm3/general")


def test_compute_falls_back_to_oracle():
    comp = compute_g("fib", 3, 3, 0)
    assert comp.path == "oracle"
    assert comp.tag is None
    assert comp.value == p_frobenius(triple("fib", 3, 3), 0)


def test_compute_oracle_method_forced():
    comp = compute_n("fib", 6, 4, 2, method="oracle")
    assert comp.path == "oracle"
    assert comp.value == 180


def test_compute_closed_method_errors_when_uncovered():
    with pytest.raises(NotCoveredError):
        compute_g("fib", 3, 3, 0, method="closed")
    with pytest.raises(NotCoveredError):
        compute_n("lucas", 4, 4, 1, method="closed")


def test_compute_rejects_unknown_method():
    with pytest.raises(ValueError):
        compute_g("fib", 6, 4, 2, method="guess")


def test_compute_takes_a_closed_form_only_for_a_family_triple():
    tup = triple("fib", 6, 4)
    assert compute("g", tup, 2, family=("fib", 6, 4)) == compute_g("fib", 6, 4, 2)
    assert compute("g", tup, 2) == (233, "oracle", None)
    with pytest.raises(NotCoveredError, match="only for --kind triples"):
        compute("n", tup, 2, method="closed")
    with pytest.raises(DegenerateTupleError):  # before the closed-form refusal
        compute("g", (1, 3), 0, method="closed")
    with pytest.raises(ValueError, match="quantity"):
        compute("h", tup, 2)
    # the closed form of (8, 21, 55) would answer 233; the walk of (3, 5, 7) gives 16
    with pytest.raises(ValueError, match=r"\(8, 21, 55\), not \(3, 5, 7\)"):
        compute("g", (3, 5, 7), 2, "auto", ("fib", 6, 4))
