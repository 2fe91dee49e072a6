import pytest

from froblab import cli, closed_forms, tables
from froblab.apery import apery_levels
from froblab.closed_forms import (
    NotCoveredError,
    _gp_general,
    _np_general,
    closed_g,
    closed_n,
    gp_fib_two_gen,
    params,
    proposition_g,
    proposition_h,
)
from froblab.cli import SweepSpec, VerifyReport, run_sweep
from froblab.denumerant import denumerant, p_frobenius_scan
from froblab.generators import DegenerateTupleError
from froblab.route import compute
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


@pytest.fixture
def params_calls(monkeypatch):
    """Every params call, under each name a module looks it up by."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return params(*args, **kwargs)

    for module in (closed_forms, cli, tables):
        monkeypatch.setattr(module, "params", counted, raising=False)
    return calls


# A triple's params are resolved once, however many levels and quantities
# read them: 3 triples at 5 levels and both quantities are 3 calls.  A sweep's
# rows are made as they are read, so the sweep is read to its end.
@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: list(run_sweep(SweepSpec(("fib",), 6, 6, (None, 3), (None, 5), 0, 4, ("g", "n")))), 3),
        (lambda: cli.run(["compute", "--kind", "fib", "--i", "6", "--k", "4", "--p", "2"]), 1),
        (lambda: tables.build_table("fib", 6, 4, 2), 1),
    ],
    ids=["run_sweep", "compute", "build_table"],
)
def test_params_runs_once_per_triple(params_calls, capsys, call, want):
    call()
    assert len(params_calls) == want


@pytest.mark.parametrize("i,k", [(2, 4), (3, 2), (0, 3), (3, -1)])
def test_params_domain_errors(i, k):
    with pytest.raises(ValueError):
        params("fib", i, k)


FIB, LUCAS = params("fib", 6, 4), params("lucas", 5, 4)


# each closed-form entry refuses a negative level, for either family
@pytest.mark.parametrize(
    "fn, args, message",
    [
        (closed_g, (FIB, -1), "p must be >= 0"),
        (closed_n, (FIB, -1), "p must be >= 0"),
        (closed_g, (LUCAS, -1), "p must be >= 0"),
        (closed_n, (LUCAS, -1), "p must be >= 0"),
        (gp_fib_two_gen, (2, 0), "i must be >= 3"),
        (gp_fib_two_gen, (3, -1), "p must be >= 0"),
    ],
)
def test_level_and_index_domain_errors(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


# closed_g/closed_n dispatch on pr.kind, so a triple reads its own family's
# theorems (all of them, over this grid) and misses under its own family's name
@pytest.mark.parametrize(
    "fn, kind, theorems",
    [
        (closed_g, "fib", {"Thm2", "Thm3", "Thm4", "Thm5", "Prop"}),
        (closed_g, "lucas", {"Thm1", "Thm6", "Thm7", "Thm8", "Thm9"}),
        (closed_n, "fib", {"N1", "N2", "N3", "Np"}),
        (closed_n, "lucas", set()),
    ],
    ids=["closed_g-fib", "closed_g-lucas", "closed_n-fib", "closed_n-lucas"],
)
def test_closed_entries_answer_from_their_own_family(fn, kind, theorems):
    quantity = "g" if fn is closed_g else "n"
    seen, misses = set(), 0
    for i in range(3, 9):
        for k in range(3, 13):
            for p in range(7):
                res = fn(params(kind, i, k), p)
                if res.covered:
                    seen.add(res.tag.theorem)
                else:
                    misses += 1
                    assert res.tag.branch.startswith(f"{kind} {quantity}: ")
    assert seen == theorems
    assert misses > 0


@pytest.mark.parametrize("general", [_gp_general, _np_general])
def test_general_formulas_refuse_r_below_p(general):
    pr = params("fib", 6, 4)  # r = 2
    with pytest.raises(AssertionError):
        general(pr, 3, "T")


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
    for i in range(3, 41):
        for k in range(i + 3, i + 7):
            assert closed_g(params("fib", i, k), 3).value == gp_fib_two_gen(i, 3)


def test_pair_reduction_covers_large_p_tails():
    res = closed_g(params("fib", 5, 5 + 4), 4)  # p=4 threshold is h=4
    assert res.covered and res.tag.theorem == "Prop"
    assert res.value == gp_fib_two_gen(5, 4)
    assert not closed_g(params("fib", 5, 5 + 3), 4).covered  # below threshold, r < p: a gap


def test_proposition_g_is_the_fib_g_tail_and_misses_for_lucas():
    at, below = params("fib", 5, 5 + 4), params("fib", 5, 5 + 3)  # p=4 threshold is h=4, r=0
    assert closed_g(at, 4) == proposition_g(at, 4) == (gp_fib_two_gen(5, 4), ("Prop", "k>=i+4", True))
    assert closed_g(below, 4) == proposition_g(below, 4)
    assert str(proposition_g(below, 4).tag) == "none/fib g: uncovered at i=5 k=8 p=4 (r=0)"
    assert not proposition_g(params("lucas", 5, 9), 4).covered
    assert not proposition_g(at, 2).covered  # no threshold at p=2


def test_pair_reduction_fails_at_i3_p23():
    # fib i=3, k=10 is (2, 5, 233).  233 itself has 24 representations: 23
    # over the pair, plus x_{i+k} alone.  So the Proposition's 233 is not
    # g_23; 231, with 23, is.  The branch stays as published, flagged verbatim.
    pr = params("fib", 3, 10)
    tup = pr.gens
    assert tup.gens == (2, 5, 233)
    assert denumerant(233, tup) == 24
    assert denumerant(231, tup) == 23
    assert apery_levels(tup, 23)[23].frobenius() == p_frobenius_scan(tup, 23) == 231
    res = closed_g(pr, 23)
    assert (res.value, str(res.tag)) == (233, "Prop/k>=i+7")


# ----------------------------------------------------- exceptional constants

def test_exceptional_constants_match_closed_form_and_oracle():
    cases = [
        ("fib", 4, 3, 2, 31),
        ("fib", 6, 3, 2, 183),
        ("fib", 6, 3, 1, 149),
        ("fib", 5, 3, 3, 92),
        ("lucas", 3, 3, 2, 61),
    ]
    for kind, i, k, p, expected in cases:
        pr = params(kind, i, k)
        assert closed_g(pr, p).value == expected
        assert apery_levels(pr.gens, p)[p].frobenius() == expected


def test_smallest_lucas_level3_constant_self_consistent():
    # The dedicated (i,k)=(3,3) branch 3*L_5 + 2*L_6 - L_3 evaluates to 65,
    # and the exhaustive oracle returns the same number.
    pr = params("lucas", 3, 3)
    res = closed_g(pr, 3)
    assert res.value == 65
    assert apery_levels(pr.gens, 3)[3].frobenius() == 65


def test_lucas_level1_tail_value():
    # i=5, any k >= i+4: (2*L_5 - 1)*L_7 - L_5 = 21*29 - 11
    pr = params("lucas", 5, 9)
    res = closed_g(pr, 1)
    assert res.value == 598
    assert apery_levels(pr.gens, 1)[1].frobenius() == 598


# ------------------------------------------------------- remark test vectors

def test_level1_remark_formulas_agree_with_dispatch():
    for i in range(4, 13):
        want = (fib(i - 2) - 1) * fib(i + 2) + 2 * fib(2 * i - 1) - fib(i)
        assert closed_g(params("fib", i, i - 1), 1).value == want
    for i in range(5, 13):
        want = (fib(i - 3) - 1) * fib(i + 2) + 3 * fib(2 * i - 2) - fib(i)
        assert closed_g(params("fib", i, i - 2), 1).value == want
    for i in range(7, 13):
        want = (fib(i - 6) - 1) * fib(i + 2) + 5 * fib(2 * i - 3) - fib(i)
        assert closed_g(params("fib", i, i - 3), 1).value == want
    assert closed_g(params("fib", 6, 3), 1).value == fib(8) + 4 * fib(9) - fib(6) == 149
    for i in range(7, 13):
        want = (fib(i - 5) + fib(i - 7) - 1) * fib(i + 2) + 7 * fib(2 * i - 4) - fib(i)
        assert closed_g(params("fib", i, i - 4), 1).value == want
    for i in range(10, 14):
        want = (fib(i - 5) - 1) * fib(i + 2) + 11 * fib(2 * i - 5) - fib(i)
        assert closed_g(params("fib", i, i - 5), 1).value == want
    assert closed_g(params("fib", 9, 4), 1).value == 12 * fib(13) - fib(9)
    assert closed_g(params("fib", 8, 3), 1).value == 11 * fib(11) - fib(8)


def test_level2_remark_formulas_hold_at_their_r():
    for i in range(5, 13):
        pr = params("fib", i, i - 2)
        assert pr.r == 2  # the remark formula is stated for r = 2
        want = (fib(i - 3) - 1) * fib(i + 2) + 4 * fib(2 * i - 2) - fib(i)
        assert closed_g(pr, 2).value == want
    for i in range(7, 13):
        pr = params("fib", i, i - 3)
        assert pr.r == 4  # and this one for r = 4
        want = (fib(i - 6) - 1) * fib(i + 2) + 6 * fib(2 * i - 3) - fib(i)
        assert closed_g(pr, 2).value == want


# ----------------------------------------------------------- worked example

def test_worked_example_closed_forms():
    assert closed_g(params("fib", 6, 4), 1).value == 178
    assert closed_g(params("fib", 6, 4), 2).value == 233
    assert closed_g(params("fib", 6, 4), 3).value == 267
    assert closed_n(params("fib", 6, 4), 1).value == 123
    assert closed_n(params("fib", 6, 4), 2).value == 180
    assert closed_n(params("fib", 6, 4), 3).value == 219


def test_case_tags_identify_branches():
    tag = closed_g(params("fib", 6, 4), 2).tag
    assert tag.theorem == "Thm3"
    assert str(tag) == "Thm3/general"
    assert closed_g(params("fib", 10, 13), 2).tag.branch == "k>=i+3"
    assert closed_g(params("lucas", 4, 4), 0).tag.theorem == "Thm1"
    assert closed_n(params("fib", 6, 9), 1).tag.theorem == "N1"


def test_verbatim_flags_sit_exactly_where_intended():
    assert closed_n(params("fib", 6, 5), 2).tag.verbatim  # N2 at k=i-1
    assert closed_n(params("fib", 5, 7), 3).tag.verbatim  # N3 at k=i+2
    assert closed_n(params("fib", 5, 6), 3).tag.verbatim  # N3 at k=i+1
    assert not closed_n(params("fib", 5, 5), 3).tag.verbatim
    assert not closed_g(params("fib", 6, 4), 2).tag.verbatim
    assert closed_g(params("fib", 3, 10), 23).tag.verbatim  # Prop, which fails at this point


# ------------------------------------------------------------- the big sweep

def test_oracle_equivalence_fib_g():
    report = VerifyReport.of(run_sweep(SweepSpec(("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("g",))))
    assert report.mismatches == []
    assert report.covered == 407  # frozen: regression guard on coverage


def test_oracle_equivalence_lucas_g():
    report = VerifyReport.of(run_sweep(SweepSpec(("lucas",), 3, 10, (None, 3), ("i", 5), 0, 3, ("g",))))
    assert report.mismatches == []
    assert report.covered == report.rows  # the four Lucas levels are fully covered


def test_oracle_equivalence_fib_n_reports_verbatim_branches():
    report = VerifyReport.of(run_sweep(SweepSpec(("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("n",))))
    assert [r for r in report.mismatches if not r.verbatim] == []
    tags = {r.case_tag for r in report.verbatim_mismatches}
    assert tags == {"N3/k=i+1", "N3/k=i+2"}
    assert len(report.verbatim_mismatches) == 19
    # the N2 verbatim branch carries odd-looking coefficients but checks out
    assert all(r.case_tag != "N2/k=i-1" for r in report.mismatches)


def test_branch_totality_for_low_levels():
    for i in range(3, 41):
        for k in range(3, i + 6):
            for p in (1, 2, 3):
                assert closed_g(params("fib", i, k), p).covered
                assert closed_n(params("fib", i, k), p).covered
            assert closed_g(params("fib", i, k), 0).covered == (params("fib", i, k).r >= 1)
    for i in range(3, 41):
        for k in range(3, i + 6):
            for p in (0, 1, 2, 3):
                assert closed_g(params("lucas", i, k), p).covered


def test_branch_split_equality_cases_match_oracle():
    # At k = i+4 (Fibonacci, r=0) both sides of the branch comparison
    # (ell + 1) * x_{i+2} against F_{k-2} * x_i are equal: ell + 1 = F_i and
    # F_{k-2} = F_{i+2}.  These points must still agree with the oracle
    # through whatever branch handles them.
    found = 0
    for i in range(3, 9):
        for k in range(3, i + 6):
            pr = params("fib", i, k)
            if (pr.ell + 1) * pr.x_i2 != fib(k - 2) * pr.x_i:
                continue
            for p, aset in enumerate(apery_levels(pr.gens, 3)):
                found += 1
                res = closed_g(pr, p)
                if res.covered:
                    assert res.value == aset.frobenius()
    assert found > 0  # the check has teeth in this range


# ------------------------------------------------------------ n_p specifics

def test_np_general_covers_level_zero():
    pr = params("fib", 5, 3)
    res = closed_n(pr, 0)
    assert res.covered and res.tag.theorem == "Np"
    assert res.value == apery_levels(pr.gens, 0)[0].sylvester()


def test_lucas_n_never_covered():
    for i, k, p in [(3, 3, 0), (5, 7, 2), (4, 9, 1)]:
        res = closed_n(params("lucas", i, k), p)
        assert not res.covered
        assert res.value is None
        assert str(res.tag) == f"none/lucas n: no closed form at i={i} k={k} p={p}"


def test_fib_p0_r0_corner_not_covered():
    res = closed_g(params("fib", 3, 3), 0)  # r = 0 at level 0: excluded corner
    assert not res.covered


# ----------------------------------------------------------- compute wrapper

def test_compute_prefers_closed_and_records_path():
    (comp,) = compute(("g",), params("fib", 6, 4), 2)
    assert (comp.value, comp.path, str(comp.tag)) == (233, "closed", "Thm3/general")


def test_compute_falls_back_to_oracle():
    pr = params("fib", 3, 3)
    (comp,) = compute(("g",), pr, 0)
    assert comp.path == "oracle"
    assert comp.tag is None
    assert comp.value == apery_levels(pr.gens, 0)[0].frobenius()


def test_compute_oracle_method_forced():
    (comp,) = compute(("n",), params("fib", 6, 4), 2, method="oracle")
    assert comp.path == "oracle"
    assert comp.value == 180


def test_compute_closed_method_errors_when_uncovered():
    with pytest.raises(NotCoveredError):
        compute(("g",), params("fib", 3, 3), 0, method="closed")
    with pytest.raises(NotCoveredError):
        compute(("n",), params("lucas", 4, 4), 1, method="closed")


def test_compute_rejects_unknown_method():
    with pytest.raises(ValueError):
        compute(("g",), params("fib", 6, 4), 2, method="guess")


def test_compute_takes_a_closed_form_only_for_a_family_triple():
    pr = params("fib", 6, 4)
    tup = pr.gens
    (comp,) = compute(("g",), pr, 2)
    assert (comp.value, comp.path, str(comp.tag)) == (233, "closed", "Thm3/general")
    assert compute(("g",), tup, 2) == ((233, "oracle", None),)
    with pytest.raises(NotCoveredError, match="only for --kind triples"):
        compute(("n",), tup, 2, method="closed")
    with pytest.raises(DegenerateTupleError):  # before the closed-form refusal
        compute(("g",), (1, 3), 0, method="closed")


@pytest.mark.parametrize("method", ["auto", "oracle"])
@pytest.mark.parametrize("source", [FIB, LUCAS, (8, 21, 55)], ids=["both-closed", "n-walked", "tuple"])
def test_compute_answers_in_the_order_asked(source, method):
    g, n = compute(("g", "n"), source, 2, method)
    assert compute(("n", "g"), source, 2, method) == (n, g)
    assert compute(("g",), source, 2, method) == (g,)
    assert compute(("n",), source, 2, method) == (n,)
    assert compute((), source, 2, method) == ()


@pytest.mark.parametrize("quantities", ["g", "gn", ("h",), ("g", "h")])
def test_compute_refuses_a_string_or_an_unknown_quantity(quantities):
    with pytest.raises(ValueError, match="quantities must be a sequence of"):
        compute(quantities, FIB, 2)


@pytest.mark.parametrize("method", ["auto", "closed", "oracle"])
@pytest.mark.parametrize("source", [FIB, (8, 21, 55)], ids=["params", "tuple"])
def test_compute_refuses_a_negative_level(source, method):
    for quantity in ("g", "n"):
        with pytest.raises(ValueError, match=r"^p must be >= 0, got -1$"):
            compute((quantity,), source, -1, method)
