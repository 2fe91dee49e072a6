"""End-to-end acceptance gate.

One test per shipping criterion, in order, so ``pytest -v`` prints one
pass/fail line for each.  Every expected value below was produced by the
brute-force counting oracle (or, for the sequence identities, by direct
evaluation) before being frozen here; nothing is tuned to make a formula
look right.

Criterion 4 records one erratum.  The published g_3 of the Lucas triple
(L_3, L_5, L_6) = (4, 11, 18) is printed as 69, but 69 has four
representations in 4x + 11y + 18z: (9,3,0), (10,1,1), (0,3,2) and (1,1,3).
The largest integer with at most three is 65 = 3*L_5 + 2*L_6 - L_3, which
the closed form and the oracle both give; the printed 69 is the same
expression without the -L_3 term.  The test pins 65 and checks both
representation counts directly.
"""

import time
from collections import Counter
from pathlib import Path

import pytest

from froblab.apery import _apery_elements, apery_levels
from froblab.cli import SweepSpec, run_proposition, run_sweep
from froblab.closed_forms import closed_g, closed_n, params
from froblab.denumerant import largest_with_exactly_p
from froblab.generators import GeneratorTuple
from froblab.sequences import fib, lucas
from froblab.tables import build_table, render_ascii

FIXTURES = Path(__file__).parent / "fixtures"
WORKED = GeneratorTuple((8, 21, 55))


@pytest.fixture(autouse=True)
def cold_caches():
    """Make every timed criterion start from a cold in-memory state."""
    _apery_elements.cache_clear()


def test_criterion_01_worked_example_frobenius_vector():
    t0 = time.monotonic()
    got = tuple(aset.frobenius() for aset in apery_levels(WORKED, 4))
    wall = time.monotonic() - t0
    assert got == (123, 178, 233, 267, 288)
    assert wall < 1.0, f"took {wall:.3f}s"
    print(f"criterion 1: PASS — g_0..g_4(8,21,55) = {got} in {wall:.3f}s")


def test_criterion_02_worked_example_sylvester_vector():
    t0 = time.monotonic()
    got = tuple(aset.sylvester() for aset in apery_levels(WORKED, 4))
    wall = time.monotonic() - t0
    assert got == (63, 123, 180, 219, 242)
    assert wall < 1.0, f"took {wall:.3f}s"
    print(f"criterion 2: PASS — n_0..n_4(8,21,55) = {got} in {wall:.3f}s")


def test_criterion_03_worked_example_apery_sets():
    expected = {
        0: {0, 21, 42, 55, 76, 97, 110, 131},
        1: {63, 84, 105, 118, 139, 152, 165, 186},
        2: {126, 147, 160, 173, 194, 207, 220, 241},
        3: {168, 181, 202, 215, 228, 249, 262, 275},
        4: {189, 210, 223, 236, 257, 270, 283, 296},
    }
    levels = apery_levels(WORKED, 4)
    for p, want in expected.items():
        got = set(levels[p].elements)
        assert got == want, f"p={p}: {sorted(got)} != {sorted(want)}"
    print("criterion 3: PASS — all five level sets of (8,21,55) reproduced")


def _count_representations(n, gens):
    """Number of (x, y, z) >= 0 with x*a + y*b + z*c == n, by direct search."""
    a, b, c = gens
    return sum(
        1
        for z in range(n // c + 1)
        for y in range((n - z * c) // b + 1)
        if (n - z * c - y * b) % a == 0
    )


def test_criterion_04_pinned_exceptional_constants():
    # printed as 69 for ("lucas", 3, 3, 3); refuted below by a direct count
    published_lucas_g3 = 69
    pinned = [
        ("fib", 4, 3, 2, 31),
        ("fib", 6, 3, 2, 183),
        ("fib", 6, 3, 1, 149),
        ("fib", 5, 3, 3, 92),
        ("lucas", 3, 3, 2, 61),
        ("lucas", 3, 3, 3, 65),
    ]
    lucas_33 = (4, 11, 18)
    assert params("lucas", 3, 3).gens == lucas_33
    assert _count_representations(published_lucas_g3, lucas_33) == 4
    assert _count_representations(65, lucas_33) == 3
    # adding a1 = 4 keeps every representation, so four consecutive integers
    # with >= 4 each certify that 65 is the largest with at most three
    assert all(_count_representations(n, lucas_33) >= 4 for n in range(66, 70))

    failures = []
    for kind, i, k, p, want in pinned:
        pr = params(kind, i, k)
        closed = closed_g(pr, p)
        oracle = apery_levels(pr.gens, p)[p].frobenius()
        ok = closed.covered and closed.value == want and oracle == want
        print(
            f"  gp_{kind}({i},{k},{p}): pinned={want} "
            f"closed={closed.value} [{closed.tag}] oracle={oracle} "
            f"{'ok' if ok else 'MISMATCH'}"
        )
        if not ok:
            failures.append(
                f"gp_{kind}({i},{k},{p}) pinned {want}, "
                f"closed gives {closed.value}, oracle gives {oracle}"
            )
    assert not failures, "; ".join(failures)
    print(
        "criterion 4: PASS — all six pinned constants reproduced; published "
        "g_3(4,11,18) = 69 refuted (69 has 4 representations, 65 has 3)"
    )


def test_criterion_05_exact_count_anecdote():
    gens = GeneratorTuple((2, 5, 7))
    for p, want in ((17, 43), (18, 42), (22, None)):
        # the scan's own table certifies absence as well as presence
        assert largest_with_exactly_p(gens, p) == want
    print("criterion 5: PASS — exactly-17 -> 43, exactly-18 -> 42, exactly-22 -> absent")


def test_criterion_06_frobenius_sweeps_match_oracle():
    t0 = time.monotonic()
    fib_report = run_sweep(SweepSpec(("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("g",)))
    lucas_report = run_sweep(SweepSpec(("lucas",), 3, 10, (None, 3), ("i", 5), 0, 3, ("g",)))
    wall = time.monotonic() - t0
    assert fib_report.mismatches == [], fib_report.to_text()
    assert lucas_report.mismatches == [], lucas_report.to_text()
    assert wall < 60.0, f"took {wall:.1f}s single-threaded"
    print(
        f"criterion 6: PASS — g sweeps clean "
        f"(fib {fib_report.covered} covered, lucas {lucas_report.covered} covered, "
        f"{wall:.1f}s)"
    )


def test_criterion_07_sylvester_sweep_reports_verbatim_branches():
    report = run_sweep(SweepSpec(("fib",), 3, 12, (None, 3), ("i", 5), 0, 4, ("n",)))
    silent = [r for r in report.mismatches if not r.verbatim]
    assert silent == [], f"non-verbatim mismatches: {silent}"
    # the report itself is the deliverable for the two pinned branches
    print(report.to_text())
    mismatch_tags = {r.case_tag for r in report.mismatches}
    assert mismatch_tags == {"N3/k=i+1", "N3/k=i+2"}
    assert len(report.mismatches) == 19
    print(
        "criterion 7: PASS — every n_p mismatch is a flagged verbatim branch "
        f"({sorted(mismatch_tags)}, {len(report.mismatches)} rows)"
    )


def test_criterion_08_pair_reduction_thresholds():
    report = run_proposition(0, 6, [3, 4, 5])
    assert len(report.rows) == 24
    assert report.mismatches == [], report.to_text()
    print("criterion 8: PASS — pair-reduction threshold holds at k=i+h and k=i+h+1 (24/24)")


def test_criterion_09_invariant_suite_condensed():
    pool = [
        GeneratorTuple((2, 3)),
        GeneratorTuple((2, 5, 7)),
        GeneratorTuple((3, 4, 5)),
        GeneratorTuple((6, 10, 15)),
        GeneratorTuple((8, 21, 55)),
    ]
    # residue completeness + the exact division behind every n_p value
    for gens in pool:
        for aps in apery_levels(gens, 4):
            assert sorted(e % gens.a1 for e in aps.elements) == list(range(gens.a1))
            assert aps.sylvester() >= 0  # internal divmod asserts exactness

    # one-step growth of the level sets on the family triples
    for kind, i_hi in (("fib", 8), ("lucas", 6)):
        for i in range(3, i_hi + 1):
            for k in range(3, i + 4):
                gens = params(kind, i, k).gens
                if gens.a1 == 1:
                    continue
                prev, *rest = apery_levels(gens, 3)
                for cur in rest:
                    assert all(
                        c >= m + gens.a1 for m, c in zip(prev.elements, cur.elements)
                    ), (kind, i, k, cur.p)
                    prev = cur

    # every halved expression in the count formulas divides exactly:
    # closed_n raises inside _half otherwise
    for i in range(3, 13):
        for k in range(3, i + 6):
            for p in range(5):
                res = closed_n(params("fib", i, k), p)
                assert not res.covered or res.value >= 0

    # the two sequence identities on the stated ranges
    for i in range(3, 41):
        for k in range(3, 41):
            assert fib(i + k) == fib(i + 2) * fib(k) - fib(i) * fib(k - 2)
    for m in range(3, 41):
        for n in range(m, 41):
            assert lucas(n) == lucas(m) * fib(n - m + 1) + lucas(m - 1) * fib(n - m)

    print("criterion 9: PASS — completeness, level growth, exact halving, identities")


def test_criterion_10_table_snapshots_byte_for_byte():
    table = build_table("fib", 6, 4, 4)
    for mode, name in (("value", "table_fib_i6_k4_p4_value.txt"),
                       ("level", "table_fib_i6_k4_p4_level.txt")):
        got = render_ascii(table, mode=mode)
        want = (FIXTURES / name).read_text()
        assert got == want, f"{mode} mode drifted from fixture {name}"
    print("criterion 10: PASS — value and level renders match hand-built fixtures")


def test_criterion_11_deep_grid_sweeps():
    t0 = time.monotonic()
    fib_report = run_sweep(SweepSpec(("fib",), 3, 18, (None, 3), ("i", 5), 0, 8, ("g", "n")))
    lucas_report = run_sweep(SweepSpec(("lucas",), 3, 16, (None, 3), ("i", 5), 0, 8, ("g", "n")))
    wall = time.monotonic() - t0
    g_mismatches = [
        r for rep in (fib_report, lucas_report) for r in rep.mismatches if r.quantity == "g"
    ]
    assert g_mismatches == [], g_mismatches
    assert lucas_report.mismatches == [], lucas_report.to_text()
    assert all(r.verbatim for r in fib_report.mismatches), fib_report.to_text()
    by_tag = Counter(r.case_tag for r in fib_report.mismatches)
    assert by_tag == {"N3/k=i+1": 15, "N3/k=i+2": 16}, by_tag
    assert wall < 60.0, f"took {wall:.1f}s single-threaded"
    print(
        f"criterion 11: PASS — deep grid (fib i<=18, lucas i<=16, p<=8): g clean, "
        f"n mismatches only on flagged verbatim branches ({dict(by_tag)}), {wall:.1f}s"
    )
