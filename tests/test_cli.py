import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from froblab import cli, route, tables
from froblab.apery import _apery_elements
from froblab.closed_forms import NotCoveredError, closed_g, params
from froblab.denumerant import largest_with_exactly_p, p_frobenius_scan, p_sylvester_scan

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ compute

@pytest.mark.parametrize("gens, family", [
    ("8,21,55", ("--kind", "fib", "--i", "6", "--k", "4", "--p", "2")),
    ("4,11,18", ("--kind", "lucas", "--i", "3", "--k", "3", "--p", "3")),  # criterion 4, g = 65
])
def test_compute_gens_and_family_share_one_result_path(capsys, gens, family):
    p = family[-1]
    for fmt in ("text", "csv", "json"):
        by_gens = run_cli(capsys, "compute", "--gens", gens, "--p", p, "--format", fmt)
        by_family = run_cli(capsys, "compute", *family, "--method", "oracle", "--format", fmt)
        assert by_gens[0] == by_family[0] == 0
        if fmt == "json":  # only the header differs
            assert json.loads(by_gens[1])["results"] == json.loads(by_family[1])["results"]
        else:
            assert by_gens[1] == by_family[1]


@pytest.mark.parametrize("method", ["auto", "closed", "oracle"])
@pytest.mark.parametrize("kind, i, k", [("fib", 4, 1), ("lucas", 0, 3), ("fib", 2, 5)])
def test_compute_refuses_indices_below_three_under_every_method(capsys, method, kind, i, k):
    code, out, err = run_cli(capsys, "compute", "--kind", kind, "--i", str(i), "--k", str(k),
                             "--method", method)
    assert (code, out) == (2, "")
    assert "must be >= 3" in err


def test_compute_family_point_text(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--kind", "fib", "--i", "6", "--k", "4", "--p", "2", "--what", "g"
    )
    assert code == 0
    assert out == "g_2(8, 21, 55) = 233  [closed Thm3/general]\n"


def test_compute_raw_tuple_trivial_pair(capsys):
    code, out, _ = run_cli(capsys, "compute", "--gens", "2,3", "--p", "0", "--what", "g")
    assert code == 0
    assert out.startswith("g_0(2, 3) = 1")


def test_compute_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--kind", "fib", "--i", "6", "--k", "4", "--p", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gens"] == [8, 21, 55]
    by_q = {r["quantity"]: r for r in doc["results"]}
    assert by_q["g"]["value"] == 233
    assert by_q["n"]["value"] == 180
    assert by_q["g"]["method"] == "closed"


def test_compute_csv(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--gens", "8,21,55", "--p", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["quantity"] == "g" and rows[0]["value"] == "233"
    assert rows[1]["quantity"] == "n" and rows[1]["value"] == "180"
    assert rows[0]["method"] == "oracle"


def test_compute_oracle_and_closed_agree(capsys):
    _, closed_out, _ = run_cli(
        capsys, "compute", "--kind", "lucas", "--i", "5", "--k", "4", "--p", "2",
        "--what", "g", "--method", "closed", "--format", "json",
    )
    _, oracle_out, _ = run_cli(
        capsys, "compute", "--kind", "lucas", "--i", "5", "--k", "4", "--p", "2",
        "--what", "g", "--method", "oracle", "--format", "json",
    )
    closed = json.loads(closed_out)["results"][0]["value"]
    oracle = json.loads(oracle_out)["results"][0]["value"]
    assert closed == oracle


# --------------------------------------------------------------- exit codes

def test_exit_usage_on_bad_arguments(capsys):
    assert run_cli(capsys, "compute")[0] == 2                      # neither --gens nor --kind
    assert run_cli(capsys, "compute", "--gens", "4,6")[0] == 2     # gcd 2
    assert run_cli(capsys, "compute", "--gens", "abc")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "compute", "--kind", "fib", "--i", "6")[0] == 2
    assert run_cli(capsys, "exact", "--gens", "2,5,7", "--p", "-1")[0] == 2


def test_table_refuses_a_negative_pmax_by_its_flag(capsys):
    code, out, err = run_cli(capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "-1")
    assert (code, out) == (2, "")
    assert "--pmax must be >= 0" in err


# each used to answer for another tuple: (55, 821), (8, 55), (7, 25), (8, 21, 55)
@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--gens", "8 21,55"),
        ("compute", "--gens", "8,,55"),
        ("exact", "--gens", "2 5,7", "--p", "0"),
        ("compute", "--gens", "8,21,55,"),
    ],
)
def test_gens_token_is_one_integer(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "could not parse generators" in err


# int() alone takes PEP 515 underscores and non-ASCII digits; each of these
# used to run with exit 0
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("compute", "--gens", "8_21,55"), "--gens"),
        (("compute", "--gens", "٣,٥"), "--gens"),
        (("verify", "--i", "1_2..1_2", "--k", "3..3", "--p", "0..0"), "--i"),
        (("verify", "--i", "3..3", "--k", "٣..٥", "--p", "0"), "--k"),
        (("seq", "--kind", "fib", "--n", "1_0"), "--n"),
        (("compute", "--kind", "fib", "--i", "٦", "--k", "4", "--what", "g"), "--i"),
        (("table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "٢"), "--pmax"),
    ],
)
def test_integer_flags_take_ascii_digits_only(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert (code, out) == (2, "")
    assert flag in err


def test_gens_tokens_may_have_blanks_around_them(capsys):
    code, out, _ = run_cli(capsys, "compute", "--gens", " 6, 10 ,15 ", "--format", "json")
    assert code == 0
    assert json.loads(out)["gens"] == [6, 10, 15]


@pytest.mark.parametrize("extra", [("--i", "99"), ("--k", "1"), ("--i", "99", "--k", "1")])
def test_compute_gens_rejects_family_flags(capsys, extra):
    code, out, err = run_cli(capsys, "compute", "--gens", "8,21,55", *extra)
    assert (code, out) == (2, "")
    assert "not both" in err


def test_exit_degenerate_tuple(capsys):
    for argv in (
        ("compute", "--gens", "1,3", "--p", "0"),
        ("exact", "--gens", "1,3", "--p", "0"),
        ("compute", "--gens", "1,3", "--method", "closed"),  # 3 wins over 4
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert "degenerate" in err


def test_exit_closed_form_not_covered(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--kind", "fib", "--i", "3", "--k", "3", "--p", "0",
        "--what", "g", "--method", "closed",
    )
    assert code == 4
    assert "not covered" in err
    # raw tuples never have a closed form
    code, _, err = run_cli(capsys, "compute", "--gens", "8,21,55", "--p", "0", "--method", "closed")
    assert code == 4
    assert err == "froblab: closed form not covered: closed forms exist only for --kind triples\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--gens", "1000000007,1000000009"),
        ("compute", "--kind", "fib", "--i", "29", "--k", "4", "--p", "10", "--method", "oracle"),
        ("table", "--kind", "lucas", "--i", "40", "--k", "3"),
        ("verify", "--kind", "fib", "--i", "40..40", "--k", "3..3", "--p", "0..0", "--quiet"),
        # the grid's largest triple is checked before the first walk
        ("verify", "--i", "3..40", "--k", "3..3", "--p", "0", "--quiet"),
        ("verify", "--i", "3..8000", "--p", "0"),
        ("verify", "--proposition", "--i", "3..40", "--p", "3..3", "--quiet"),
        ("exact", "--gens", "1000000007,1000000009", "--p", "0"),
    ],
)
def test_over_budget_is_a_usage_error(capsys, argv):
    # Every input here trips the estimate before anything is allocated.
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert "over the budget of 5000000" in err
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert peak < 10_000_000


def test_over_budget_message_names_long_numbers_by_digit_count(capsys):
    # The grid's largest triple is (fib(8000), fib(8002), fib(16005)): a_1 has
    # 1672 digits.
    code, out, err = run_cli(capsys, "verify", "--i", "3..8000", "--p", "0")
    assert (code, out) == (2, "")
    assert err == (
        "froblab: a_1 = (1672 digits) at levels 0..0 needs (a_1+11)*(p_max+2) "
        "+ a_1*p_max//3 = (1672 digits), over the budget of 5000000\n"
    )


def test_verify_grid_over_index_bound_is_refused_before_any_walk(capsys, monkeypatch):
    def walked(*args):
        raise AssertionError("walked a triple")

    monkeypatch.setattr(route, "apery_levels", walked)
    code, out, err = run_cli(capsys, "verify", "--i", "3..20000", "--k", "3..3", "--p", "0", "--quiet")
    assert (code, out) == (2, "")
    assert "over the bound of 20000" in err
    # an empty grid has no largest triple and is refused, also before any walk
    code, out, _ = run_cli(capsys, "verify", "--i", "3..40", "--k", "1..2", "--quiet")
    assert (code, out) == (2, "")


_BOUNDS = st.tuples(st.sampled_from([None, "i"]), st.integers(-6, 12))


@given(st.integers(0, 12), st.integers(0, 12), _BOUNDS, _BOUNDS)
@settings(max_examples=300, deadline=None)
def test_largest_is_the_last_listed_triple(i_lo, i_hi, k_lo, k_hi):
    spec = cli.SweepSpec(("fib",), i_lo, i_hi, k_lo, k_hi)
    listed = spec.triples()
    assert spec.largest() == (listed[-1][1:] if listed else None)
    # every i of the range, each with its own k range
    assert listed == [
        ("fib", i, k)
        for i in range(i_lo, i_hi + 1)
        for k in range(max(cli._bound_at(k_lo, i), 3), cli._bound_at(k_hi, i) + 1)
    ]


def test_listing_stops_where_the_k_range_empties_for_good(capsys, monkeypatch):
    # From i = 5 on, k = i+1..5 is empty; the listing must not step through
    # the other 999,999,996 values of i.
    real, calls = cli._bound_at, []

    def counted(bound, i):
        calls.append(i)
        if len(calls) > 1000:
            raise AssertionError("listed past the last i with a k range")
        return real(bound, i)

    monkeypatch.setattr(cli, "_bound_at", counted)
    huge = run_cli(capsys, "verify", "--i", "3..1000000000", "--k", "i+1..5", "--p", "0", "--quiet")
    small = run_cli(capsys, "verify", "--i", "3..4", "--k", "i+1..5", "--p", "0", "--quiet")
    assert huge == small
    assert huge[0] == 0 and huge[1].startswith("checked 3 values at 3 grid points\n")


def test_high_level_on_small_tuple_stays_small(capsys):
    # a1*(p+2) = 4004 is far inside the budget; each cycle of the walk must
    # then hold O(p) values, not (p+1)**2 (about 180 MB here).
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "compute", "--gens", "2,5,8", "--p", "2000",
                               "--what", "both", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    values = {r["quantity"]: r["value"] for r in json.loads(out)["results"]}
    assert values == {"g": p_frobenius_scan((2, 5, 8), 2000), "n": p_sylvester_scan((2, 5, 8), 2000)}
    assert peak < 10_000_000


# -------------------------------------------------------------------- verify

def test_verify_small_grid_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "fib", "--i", "3..5", "--k", "3..i+2",
        "--p", "0..2", "--what", "g", "--quiet",
    )
    assert code == 0
    assert "OK" in out
    assert "MISMATCH" not in out


def test_verify_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "fib", "--i", "4..4", "--k", "3..4",
        "--p", "1..1", "--what", "both", "--format", "csv", "--quiet",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == [
        "kind", "i", "k", "p", "r", "ell", "quantity",
        "closed_value", "oracle_value", "case_tag", "match",
    ]
    assert {r["quantity"] for r in rows} == {"g", "n"}
    for r in rows:
        if r["match"] == "true":
            assert r["closed_value"] == r["oracle_value"]


def test_verify_reports_verbatim_mismatch_with_nonzero_exit(capsys):
    # the pinned level-3 count branch at k=i+2 disagrees with the oracle
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "fib", "--i", "5..5", "--k", "7..7",
        "--p", "3..3", "--what", "n", "--quiet",
    )
    assert code == 1
    assert "MISMATCH [verbatim]" in out
    assert "N3/k=i+2" in out


# "" is refused too, not read as the flag's default
@pytest.mark.parametrize("k", ["3..2i", "3..i2", "i+..5", "3..j", "3..i+-1", "-3..4", ""])
def test_verify_rejects_malformed_k_bound(capsys, k):
    code, out, err = run_cli(
        capsys, "verify", "--i", "3..4", f"--k={k}", "--p", "0..0", "--quiet",
    )
    assert (code, out) == (2, "")
    assert "bad k bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--i", "a..b"), ("--i", "3.."), ("--p", "1..x"), ("--proposition", "--p", "x"),
        ("--i", ""), ("--p", ""), ("--proposition", "--i", ""), ("--proposition", "--p", ""),
    ],
)
def test_verify_range_error_names_its_flag(capsys, argv):
    flag, text = argv[-2:]
    code, out, err = run_cli(capsys, "verify", *argv, "--quiet")
    assert (code, out) == (2, "")
    assert f"bad {flag} range {text!r}: expected N or N..M" in err


def test_sweep_refuses_unknown_quantity_before_listing(monkeypatch):
    def listed(self):
        raise AssertionError("grid listed")

    monkeypatch.setattr(cli.SweepSpec, "triples", listed)
    with pytest.raises(ValueError, match=r"\('g', 'n'\)"):
        cli.run_sweep(cli.SweepSpec(quantities=("x",)))


def test_k_bounds_that_parse():
    assert cli._parse_span("--k", "3..i+5", cli._parse_k_bound) == ((None, 3), ("i", 5))
    assert cli._parse_span("--k", " i - 1 .. i ", cli._parse_k_bound) == (("i", -1), ("i", 0))
    assert cli._parse_span("--k", "7", cli._parse_k_bound) == ((None, 7), (None, 7))


@pytest.mark.parametrize("flag, value, err", [
    ("--i", "-5..3", "froblab: i must be >= 3, got -5\n"),
    ("--p", "-1..3", "froblab: p must be >= 0, got -1\n"),
], ids=["i", "p"])
@pytest.mark.parametrize("proposition", [(), ("--proposition",)], ids=["sweep", "proposition"])
def test_negative_range_is_refused_with_either_spelling(capsys, flag, value, err, proposition):
    # argparse takes "-5..3" after a flag for the next flag; both spellings
    # must reach the range's own check and name the bound that was typed.
    spaced = run_cli(capsys, "verify", *proposition, flag, value)
    joined = run_cli(capsys, "verify", *proposition, f"{flag}={value}")
    assert spaced == joined == (2, "", err)


def test_verify_rejects_negative_level(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--kind", "fib", "--i", "3..4", "--k", "3..4", "--p=-1..1", "--quiet",
    )
    assert (code, out) == (2, "")
    assert "p must be >= 0" in err


@pytest.mark.parametrize("kind", ["fib", "lucas"])
def test_verify_rejects_index_below_three(capsys, kind):
    code, out, err = run_cli(
        capsys, "verify", "--kind", kind, "--i", "2..3", "--k", "3..3", "--p", "0..0", "--quiet",
    )
    assert (code, out) == (2, "")
    assert "i must be >= 3, got 2" in err
    # an empty grid has no index to check, and is refused for that
    assert run_cli(capsys, "verify", "--kind", kind, "--i", "2..1", "--quiet")[0] == 2


@pytest.mark.parametrize("argv, flag", [
    (("--p", "4..2"), "--p"),
    (("--i", "9..3"), "--i"),
    (("--i", "3..40", "--k", "1..2"), "--k"),
    (("--proposition", "--p", "0..2"), "--p"),  # no level with a threshold
    (("--proposition", "--i", "5..3"), "--i"),
])
def test_verify_refuses_a_range_that_selects_nothing(capsys, argv, flag):
    # checking nothing is not a passed check
    code, out, err = run_cli(capsys, "verify", *argv, "--quiet")
    assert (code, out) == (2, "")
    assert err.startswith(f"froblab: {flag} ") and " selects no " in err


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(*args):
        raise AssertionError("invariant broke")

    monkeypatch.setattr(route, "apery_levels", broken)
    code, out, err = run_cli(
        capsys, "verify", "--i", "3..3", "--k", "3..3", "--p", "0..0", "--quiet",
    )
    assert (code, out) == (5, "")
    assert err == "froblab: internal error: invariant broke\n"


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--kind", "both", "--i", "3..4", "--k", "3..4",
        "--p", "0..1", "--format", "json", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["summary"]["mismatches"] == 0
    assert doc["summary"]["covered"] + doc["summary"]["oracle_only"] == doc["summary"]["rows"]


def test_a_report_is_a_function_of_its_grid():
    spec = cli.SweepSpec(("fib", "lucas"), 3, 5, (None, 3), ("i", 2), 0, 3, ("g", "n"))
    first = cli.run_sweep(spec)
    assert first.rows and first == cli.run_sweep(spec)
    first = cli.run_proposition(0, 6, range(3, 5))
    assert first.rows and first == cli.run_proposition(0, 6, range(3, 5))


def test_verify_rows_are_what_compute_answers_by_each_route(capsys):
    code, out, _ = run_cli(capsys, "verify", "--kind", "both", "--what", "both", "--i", "3..5",
                           "--k", "3..i+2", "--p", "0..3", "--format", "csv", "--quiet")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 1 and len(rows) == 2 * 2 * 4 * 12  # kinds, quantities, levels, triples
    assert {row["match"] for row in rows} == {"true", "false", ""}  # N3 misses at k = i + 1
    for row in rows:
        pr, q, p = params(row["kind"], int(row["i"]), int(row["k"])), row["quantity"], int(row["p"])
        assert int(row["oracle_value"]) == route.compute(q, pr, p, "oracle").value
        if row["match"]:
            assert int(row["closed_value"]) == route.compute(q, pr, p, "closed").value
        else:
            assert row["closed_value"] == ""
            with pytest.raises(NotCoveredError):
                route.compute(q, pr, p, "closed")


@pytest.mark.parametrize("extra", [(), ("--proposition",)])
def test_verify_times_itself_on_stderr_only(capsys, extra):
    code, out, err = run_cli(capsys, "verify", "--i", "3..4", "--p", "0..4", *extra)
    assert code == 0 and out.endswith("OK\n") and "wall time" not in out
    assert [line for line in err.splitlines() if line.startswith("wall time: ")] == [err.splitlines()[-1]]
    assert re.fullmatch(r"wall time: \d+\.\d\ds", err.splitlines()[-1])
    # --quiet writes nothing there
    assert run_cli(capsys, "verify", "--i", "3..4", "--p", "0..4", *extra, "--quiet")[2] == ""


def test_only_the_point_loop_builds_rows():
    tree = ast.parse((SRC / "froblab" / "cli.py").read_text(encoding="utf-8"))
    builders = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Row"
    }
    assert builders == {"_sweep_point"}


def test_verify_proposition(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--proposition", "--p", "0..6", "--i", "3..5",
        "--format", "json", "--quiet",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["summary"]["rows"] == 24  # (p,h) in {3,4,5,6} x i in {3,4,5} x two k's


def test_verify_proposition_walks_each_triple_once(capsys, monkeypatch):
    walks = []
    real = route.apery_levels

    def counted(gens, p_max):
        walks.append((tuple(gens), p_max))
        return real(gens, p_max)

    monkeypatch.setattr(route, "apery_levels", counted)
    code, out, _ = run_cli(capsys, "verify", "--proposition", "--p", "0..6", "--i", "3..5",
                           "--format", "json", "--quiet")
    assert code == 0
    assert json.loads(out)["summary"]["rows"] == 24
    # 9 distinct triples: i in {3, 4, 5} and k - i in {4, 5, 6}, as h is 4 or 5
    assert len(walks) == len({gens for gens, _ in walks}) == 9


@pytest.mark.parametrize(
    "extra",
    [("--k", "3..4"), ("--kind", "lucas"), ("--kind", "both"), ("--what", "n"), ("--what", "both")],
)
def test_proposition_refuses_what_it_would_ignore(capsys, extra):
    code, out, err = run_cli(capsys, "verify", "--proposition", "--p", "3..3", "--i", "3..3",
                             *extra, "--quiet")
    assert (code, out) == (2, "")
    assert "--proposition" in err


def test_proposition_rejects_negative_level(capsys):
    code, out, err = run_cli(capsys, "verify", "--proposition", "--p=-3..-1", "--quiet")
    assert (code, out) == (2, "")
    assert "p must be >= 0, got -3" in err
    # an empty range has no level to check, and is refused for that
    assert run_cli(capsys, "verify", "--proposition", "--p=-1..-3", "--quiet")[0] == 2


def test_proposition_failure_at_i3_prints_as_verbatim(capsys):
    code, out, _ = run_cli(capsys, "verify", "--proposition", "--i", "3..3", "--p", "23..23", "--quiet")
    assert code == 1
    assert ("MISMATCH [verbatim] g kind=fib i=3 k=10 p=23 r=0 ell=1: "
            "closed=233 oracle=231 tag=Prop/k>=i+7") in out.splitlines()
    assert out.endswith("FAIL\n")


def test_proposition_takes_fib_and_g_spelled_out(capsys):
    argv = ["verify", "--proposition", "--p", "3..4", "--i", "3..4", "--quiet"]
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--kind", "fib", "--what", "g") == plain


def test_verify_deterministic_and_jobs_invariant(capsys):
    args = ["verify", "--kind", "fib", "--i", "3..5", "--k", "3..i+1",
            "--p", "0..1", "--what", "both", "--format", "csv", "--quiet"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
    assert parallel == first


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--i", "3..3", "--k", "3..3", "--jobs", "0"),
        ("table", "--kind", "fib", "--i", "6", "--k", "4", "--jobs", "2"),
        ("seq", "--kind", "fib", "--n", "10", "--jobs", "9"),
    ],
)
def test_jobs_is_a_checked_verify_only_flag(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--quiet")
    assert (code, out) == (2, "")


# ---------------------------------------------------------------- oracle memo

def test_sweep_keeps_one_oracle_walk():
    cli.run_sweep(cli.SweepSpec(("fib",), 3, 3, (None, 3), (None, 5), 0, 2, ("g",)))
    assert _apery_elements.cache_info().currsize <= 1


def test_compute_both_walks_once(capsys):
    _apery_elements.cache_clear()
    code, _, _ = run_cli(
        capsys, "compute", "--kind", "fib", "--i", "6", "--k", "4", "--p", "2",
        "--what", "both", "--method", "oracle",
    )
    assert code == 0
    info = _apery_elements.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# --------------------------------------------------------------------- table

def test_table_value_mode_matches_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "4",
        "--mode", "value",
    )
    assert code == 0
    assert out == (FIXTURES / "table_fib_i6_k4_p4_value.txt").read_text()


def test_table_level_mode_matches_fixture(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "4",
        "--mode", "level",
    )
    assert code == 0
    assert out == (FIXTURES / "table_fib_i6_k4_p4_level.txt").read_text()


def test_table_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "0",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["value"] for r in rows if r["level"] == "1"] == [
        "0", "21", "42", "55", "76", "97", "110", "131"
    ]
    code, out, _ = run_cli(
        capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "0",
        "--format", "json",
    )
    assert json.loads(out)["levels"][0]["elements"] == [0, 21, 42, 55, 76, 97, 110, 131]


@pytest.mark.parametrize("i, k", [(3, 7), (6, 10)])
def test_table_with_repeated_values_exits_ok(capsys, i, k):
    # x_{i+k} is a multiple of x_{i+2}, so it recurs at two levels
    code, out, err = run_cli(capsys, "table", "--kind", "fib", "--i", str(i), "--k", str(k),
                             "--pmax", "6", "--mode", "level")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == "7"


def test_table_pmax0_single_staircase(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "0",
        "--mode", "level",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1 1 1", "1 1 1", "1 1"]


def test_table_box_over_budget_is_refused_before_any_cell(capsys, monkeypatch):
    # fib i=6, k=4 at pmax 4 has an 11x6 box; its walk is far inside the budget
    argv = ("table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "4", "--format", "json")
    real_cell = tables.Cell

    def no_cell(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(tables, "Cell", no_cell)
    monkeypatch.setattr(tables, "VALUE_BUDGET", 65)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "froblab: table box 11x6 is over the budget of 65 cells\n"

    monkeypatch.setattr(tables, "Cell", real_cell)
    monkeypatch.setattr(tables, "VALUE_BUDGET", 66)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(json.loads(out)["cells"]) == 66


@pytest.mark.parametrize(
    "delta, message",
    [(8, "cell (3, 4) has rank 4 but value 283 != 291"), (-8, "39 cells annotated, expected 40")],
)
def test_table_invariants_catch_a_corrupted_walk(capsys, monkeypatch, delta, message):
    # Move the top-level element of residue 3 by a1 = 8.  Raised, the cell
    # that ranks at level 5 no longer holds the column's value; lowered,
    # every cell still agrees with its column but one annotation is lost.
    real = tables.apery_levels

    def corrupted(tup, p_max):
        levels = real(tup, p_max)
        elements = list(levels[-1].elements)
        elements[3] += delta
        return levels[:-1] + (levels[-1]._replace(elements=tuple(elements)),)

    monkeypatch.setattr(tables, "apery_levels", corrupted)
    code, out, err = run_cli(capsys, "table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "4")
    assert (code, out) == (5, "")
    assert err == f"froblab: internal error: {message}\n"


# --------------------------------------------------------------------- exact

def test_exact_examples(capsys):
    code, out, _ = run_cli(capsys, "exact", "--gens", "2,5,7", "--p", "17")
    assert code == 0 and out.strip().endswith("43")
    code, out, _ = run_cli(capsys, "exact", "--gens", "2,5,7", "--p", "18")
    assert code == 0 and out.strip().endswith("42")
    code, out, _ = run_cli(capsys, "exact", "--gens", "2,5,7", "--p", "22")
    assert code == 0 and out.strip().endswith("none")
    # a pair's level-0 value, 2*1000000001 - 2 - 1000000001, from two residues
    code, out, _ = run_cli(capsys, "exact", "--gens", "2,1000000001", "--p", "0")
    assert code == 0 and out.strip().endswith(" 999999999")


def test_exact_json(capsys):
    code, out, _ = run_cli(capsys, "exact", "--gens", "2,5,7", "--p", "22", "--format", "json")
    assert json.loads(out)["value"] is None


exact_tuples = (
    st.lists(st.integers(min_value=2, max_value=60), min_size=2, max_size=4, unique=True)
    .filter(lambda gens: gcd(*gens) == 1)
    .map(lambda gens: tuple(sorted(gens)))
)


# (2,5,7) at p = 18 and 22 needs e_p(j) - a1 >= e_{p-1}(j): without it they
# give 43 and 48, not 42 and none.  (3,4,5) has levels 4 and 5 sharing 20.
@settings(max_examples=80, deadline=None)
@given(exact_tuples, st.integers(min_value=0, max_value=8))
@example((2, 5, 7), 17)
@example((2, 5, 7), 18)
@example((2, 5, 7), 22)
@example((3, 4, 5), 4)
@example((3, 4, 5), 5)
@example((3, 4, 5), 6)
def test_exact_matches_count_table(gens, p):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["exact", "--gens", ",".join(map(str, gens)), "--p", str(p), "--format", "json"])
    assert code == 0
    # the reference scans a count table, so it shares nothing with the walk
    want = largest_with_exactly_p(gens, p)
    assert json.loads(out.getvalue())["value"] == want, (gens, p)


# ----------------------------------------------------------------------- seq

def test_seq_text_and_formats(capsys):
    assert run_cli(capsys, "seq", "--kind", "fib", "--n", "10") == (0, "55\n", "")
    code, out, _ = run_cli(capsys, "seq", "--kind", "lucas", "--n", "0", "--format", "json")
    assert json.loads(out) == {"kind": "lucas", "n": 0, "value": 2}
    code, out, _ = run_cli(capsys, "seq", "--kind", "fib", "--n", "6", "--format", "csv")
    assert out == "kind,n,value\nfib,6,8\n"


# ------------------------------------------------------- no count table (DP)

def test_cli_paths_build_no_count_table(capsys, monkeypatch):
    # The dense count table is the tests' cross-check; no command may need it.
    def no_dp(*args):
        raise RuntimeError("count table built")

    # (the package's `denumerant` attribute is the function, not the module)
    monkeypatch.setattr(importlib.import_module("froblab.denumerant"), "_compute_counts", no_dp)
    for argv in (
        ("exact", "--gens", "2,5,7", "--p", "17"),
        ("compute", "--gens", "8,21,55", "--p", "2"),
        ("compute", "--kind", "lucas", "--i", "5", "--k", "4", "--p", "2", "--method", "oracle"),
        ("verify", "--kind", "both", "--i", "3..4", "--k", "3..i+1", "--p", "0..2",
         "--what", "both", "--quiet"),
        ("table", "--kind", "fib", "--i", "6", "--k", "4", "--pmax", "4"),
    ):
        assert run_cli(capsys, *argv)[0] == 0, argv


# -------------------------------------------------------------- index bound

@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "--kind", "fib", "--n", "100000000"),
        ("compute", "--kind", "fib", "--i", "1000000", "--k", "4"),
    ],
)
def test_index_over_bound_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "over the bound of 20000" in err


@pytest.mark.parametrize("kind", ["fib", "lucas"])
def test_index_at_bound_still_prints(capsys, kind):
    code, out, _ = run_cli(capsys, "seq", "--kind", kind, "--n", "20000")
    assert code == 0
    assert len(out) == 4180 + 1  # 4,180 digits and a newline


@contextlib.contextmanager
def _digit_limit(limit):
    """Set the int/str digit limit, where there is one, to ``limit`` (0 lifts it) inside the block."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("argv, expected", [
    (("seq", "--kind", "fib", "--n", "10"), 0),
    (("--help",), 0),
    (("seq", "--kind", "fib"), 2),  # argparse's own error
    (("seq", "--kind", "fib", "--n", "20001"), 2),  # a ValueError refusal
    (("verify", "--i", "3..3", "--k", "3..3", "--p", "0..0", "--quiet"), 5),  # an AssertionError
], ids=["success", "help", "argparse-error", "refusal", "internal-error"])
def test_every_exit_puts_the_digit_limit_back(capsys, monkeypatch, argv, expected):
    def broken(*args):
        raise AssertionError("invariant broke")

    monkeypatch.setattr(route, "apery_levels", broken)
    with _digit_limit(4321):  # a limit that no run sets by itself
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        assert run_cli(capsys, *argv)[0] == expected
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_over_long_integer_stays_a_parse_error(capsys):
    # The limit is lifted only after argparse has read the integers.
    code, out, err = run_cli(capsys, "seq", "--kind", "fib", "--n", "1" * 4301)
    assert (code, out) == (2, "")
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4301:
        assert "argument --n: invalid integer value" in err


def test_runs_without_a_digit_limit(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 have no int/str digit limit to lift.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_cli(capsys, "seq", "--kind", "fib", "--n", "10") == (0, "55\n", "")


@pytest.mark.parametrize("method, fmt", [("closed", "text"), ("auto", "json"), ("closed", "csv")])
def test_large_closed_form_value_prints(capsys, method, fmt):
    # Each term is under MAX_INDEX, but the value is a product of two of
    # them: 6,270 digits, past the interpreter's default limit of 4,300.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(
        capsys, "compute", "--kind", "fib", "--i", "15000", "--k", "4", "--p", "0",
        "--what", "g", "--method", method, "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    expected = closed_g(params("fib", 15000, 4), 0).value
    with _digit_limit(0):
        assert len(str(expected)) == 6270
        if fmt == "json":
            assert json.loads(out)["results"][0]["value"] == expected
        elif fmt == "csv":
            # the csv module calls str() on the int itself, under run()'s lifted limit
            assert next(csv.DictReader(io.StringIO(out)))["value"] == str(expected)
        else:
            assert f" = {expected}  [closed Thm5/general]\n" in out


# ----------------------------------------------------------- pinned stdout

# stdout sha256 and exit code of 75 command lines (5 commands x 3 formats),
# recorded before the output writers were shared, so that refactors of the
# writers can show they print the same bytes.  The six empty verify grids
# were re-pinned to exit 2 and empty stdout when verify began refusing them.
PINNED = json.loads((FIXTURES / "cli_stdout_sha256.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=[" ".join(c["argv"]) for c in PINNED])
def test_stdout_matches_pinned_digest(capsys, case):
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


# ------------------------------------------------------------- cache env var

def test_cache_dir_keeps_output_identical(tmp_path, monkeypatch, capsys):
    # Nothing reads FROBLAB_CACHE_DIR: setting it changes neither the
    # output nor the directory.
    args = ["exact", "--gens", "2,5,7", "--p", "17"]
    plain = run_cli(capsys, *args)
    monkeypatch.setenv("FROBLAB_CACHE_DIR", str(tmp_path))
    assert run_cli(capsys, *args) == plain
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- entry point

@pytest.mark.skipif(shutil.which("froblab") is None,
                    reason="froblab console script not on PATH (package not installed)")
def test_installed_entry_point_runs():
    proc = subprocess.run(["froblab", "seq", "--kind", "fib", "--n", "10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "55\n"


def test_cli_import_stays_single_process():
    # Besides the pool modules: json and csv are loaded only by the formats
    # that use them, and no record type pulls in dataclasses (and inspect).
    # Only what the import adds counts, so a site hook cannot fail this.
    checked = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect", "json", "csv")
    code = (f"import sys; checked = {checked!r}; "
            "before = {m for m in checked if m in sys.modules}; import froblab.cli; "
            "print([m for m in checked if m in sys.modules and m not in before])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_table_json_does_not_load_json():
    # export_json writes its document from templates; the verdict goes to
    # stderr, after the table on stdout
    code = ("import sys; before = 'json' in sys.modules; import froblab.cli; "
            "rc = froblab.cli.run(['table', '--kind', 'fib', '--i', '6', '--k', '4', "
            "'--pmax', '4', '--format', 'json']); "
            "print(rc, not before and 'json' in sys.modules, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == tables.export_json(tables.build_table("fib", 6, 4, 4))
    assert proc.stderr == "0 False\n"


def _seq_fib_10(*interpreter_args):
    """``seq --kind fib --n 10`` in a child interpreter that fails on any warning."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-W", "error", *interpreter_args, "seq", "--kind", "fib", "--n", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_console_script_target_runs():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts["froblab"] == "froblab.cli:main"
    # what a generated console script does: set argv[0], call the target
    code = "import sys; sys.argv[0] = 'froblab'; from froblab.cli import main; sys.exit(main())"
    proc = _seq_fib_10("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "55\n"


def test_module_entry_point_runs():
    proc = _seq_fib_10("-m", "froblab")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "55\n"


# One call per command.  Closed before the child starts, the pipe fails the
# first write of every command; closed after the first bytes, it fails what the
# command writes once the reader has left, if anything.
_CLOSED_STDOUT_CALLS = {
    "compute": ("compute", "--kind", "fib", "--i", "6", "--k", "4", "--p", "2"),
    "verify": ("verify", "--i", "3..8", "--p", "0..2", "--quiet"),
    "table": ("table", "--kind", "fib", "--i", "14", "--k", "6", "--pmax", "6"),
    "exact": ("exact", "--gens", "8,21,55", "--p", "2"),
    "seq": ("seq", "--kind", "fib", "--n", "20000"),
}


@pytest.mark.parametrize("closed", ["before the first byte", "after the first bytes"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(_CLOSED_STDOUT_CALLS))
def test_a_closed_stdout_exits_0_with_nothing_on_stderr(command, fmt, closed):
    # A reader that leaves early, as `froblab ... | head -c 100` does.
    read_end, write_end = os.pipe()
    if closed.startswith("before"):
        os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "froblab", *_CLOSED_STDOUT_CALLS[command], "--format", fmt]
    proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    if closed.startswith("after"):
        assert os.read(read_end, 100)
        os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


def test_quiet_silences_stderr(capsys):
    _, _, err = run_cli(
        capsys, "verify", "--kind", "fib", "--i", "3..3", "--k", "3..3",
        "--p", "0..0", "--quiet",
    )
    assert err == ""
