import json
from math import gcd
from pathlib import Path

import pytest

from froblab.closed_forms import params
from froblab.generators import GeneratorTuple
from froblab.sequences import fib
from froblab.tables import ResidueTable, build_table, export_json, render_ascii

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def worked_example():
    return build_table("fib", 6, 4, 4)


def test_snapshot_value_mode(worked_example):
    expected = (FIXTURES / "table_fib_i6_k4_p4_value.txt").read_text()
    assert render_ascii(worked_example, "value") == expected


def test_snapshot_level_mode(worked_example):
    expected = (FIXTURES / "table_fib_i6_k4_p4_level.txt").read_text()
    assert render_ascii(worked_example, "level") == expected


def test_snapshot_residue_mode(worked_example):
    expected = (FIXTURES / "table_fib_i6_k4_p4_residue.txt").read_text()
    assert render_ascii(worked_example, "residue") == expected


def test_render_rejects_unknown_mode(worked_example):
    with pytest.raises(ValueError):
        render_ascii(worked_example, "color")


def test_render_is_deterministic(worked_example):
    again = build_table("fib", 6, 4, 4)
    for mode in ("value", "residue", "level"):
        assert render_ascii(worked_example, mode) == render_ascii(again, mode)


def test_levels_carry_the_apery_sets(worked_example):
    assert len(worked_example.levels) == 5
    assert sorted(worked_example.levels[0].elements) == [0, 21, 42, 55, 76, 97, 110, 131]
    assert sorted(worked_example.levels[4].elements) == [189, 210, 223, 236, 257, 270, 283, 296]


def test_level_annotation_spot_checks(worked_example):
    # positions read off the hand-built fixture grids
    assert worked_example.cell(1, 2).value == 131  # 21*1 + 55*2
    assert worked_example.cell(1, 2).level == 1
    assert worked_example.cell(8, 0).value == 168
    assert worked_example.cell(8, 0).level == 4
    assert worked_example.cell(1, 5).value == 296
    assert worked_example.cell(1, 5).level == 5
    assert worked_example.cell(10, 0).value == 210
    assert worked_example.cell(10, 0).level == 5


def test_per_level_residue_completeness(worked_example):
    a1 = worked_example.params.gens.a1
    for level in range(1, 6):
        cells = [c for c in worked_example.cells if c.level == level]
        assert len(cells) == a1
        assert sorted(c.residue for c in cells) == list(range(a1))


def test_no_cell_carries_two_levels(worked_example):
    seen = {}
    for c in worked_example.cells:
        if c.level is not None:
            assert (c.x, c.y) not in seen
            seen[(c.x, c.y)] = c.level


def test_value_identity_over_grid(worked_example):
    pr = worked_example.params
    fk, fk2 = fib(pr.k), fib(pr.k - 2)
    for c in worked_example.cells:
        assert c.value == (c.x + c.y * fk) * pr.x_i2 - c.y * fk2 * pr.x_i


def test_shift_congruence_over_grid(worked_example):
    # moving one block right and one row down preserves the residue
    pr = worked_example.params
    fk = fib(pr.k)
    for c in worked_example.cells:
        if c.y >= 1 and c.x + fk < worked_example.width:
            other = worked_example.cell(c.x + fk, c.y - 1)
            assert other.residue == c.residue


def test_level_one_staircase_shape():
    # r full rows of width fib(k), then a partial row of ell+1 cells
    for kind, i, k in [("fib", 6, 4), ("fib", 7, 3), ("lucas", 4, 3)]:
        pr = params(kind, i, k)
        assert pr.r >= 1
        table = build_table(kind, i, k, 0)
        level1 = {(c.x, c.y) for c in table.cells if c.level == 1}
        expected = {(x, y) for y in range(pr.r) for x in range(fib(k))}
        expected |= {(x, pr.r) for x in range(pr.ell + 1)}
        assert level1 == expected


def test_level_zero_count_is_a1():
    table = build_table("fib", 3, 3, 0)
    assert len(table.levels) == 1
    annotated = [c for c in table.cells if c.level is not None]
    assert len(annotated) == 2  # F_3 = 2 residue classes


def test_grid_stays_inside_theoretical_bounds(worked_example):
    pr, p_max = worked_example.params, len(worked_example.levels) - 1
    assert worked_example.width <= (p_max + 2) * fib(pr.k)
    assert worked_example.height <= pr.r + p_max + 3


def test_duplicate_value_goes_to_smallest_row_then_column():
    # fib i=3, k=3 is (2, 5, 8): 40 = 8*5 + 0*8 = 0*5 + 5*8, and row 0 takes it first
    table = build_table("fib", 3, 3, 20)
    assert table.cell(8, 0).value == table.cell(0, 5).value == 40
    assert table.cell(0, 5).level == table.cell(8, 0).level + 1
    # when only the higher row works, the value is still annotated there
    assert table.cell(0, 1).value == 8
    assert table.cell(0, 1).level == 2
    assert all(c.value != 3 for c in table.cells)


@pytest.mark.parametrize("a2, a3", [(5, 8), (21, 55), (8, 5), (6, 9), (10, 15), (4, 6), (12, 18), (7, 7), (3, 12)])
def test_least_cell_matches_linear_search(a2, a3):
    # build_table numbers the decompositions of a value by y // step; the
    # least one (smallest y, as a linear search finds it) must be number 0
    def linear(m):
        return [((m - y * a3) // a2, y) for y in range(m // a3 + 1) if (m - y * a3) % a2 == 0]

    step = a2 // gcd(a2, a3)
    points = [linear(m) for m in range(3000)]
    for pts in points:
        assert [y // step for _, y in pts] == list(range(len(pts)))
    assert [] in points[:100]  # non-representable m are exercised
    assert any(len(pts) > 2 for pts in points)  # and repeated decompositions


def test_empty_table_renders_header_only():
    pr = params("fib", 6, 4)
    empty = ResidueTable(pr, (), ())
    out = render_ascii(empty, "value")
    assert out == "t(x,y) = 21*x + 55*y  [mod 8]  levels=0 mode=value\n"


def test_cell_refuses_points_outside_the_box(worked_example):
    w, h = worked_example.width, worked_example.height
    assert worked_example.cell(w - 1, 0).x == w - 1
    for x, y in [(-1, 0), (0, -1), (w, 0), (0, h)]:
        with pytest.raises(IndexError, match="outside table"):
            worked_example.cell(x, y)


def test_build_rejects_negative_levels():
    with pytest.raises(ValueError):
        build_table("fib", 6, 4, -1)


def test_export_json_schema(worked_example):
    doc = json.loads(export_json(worked_example))
    assert doc["kind"] == "fib" and doc["i"] == 6 and doc["k"] == 4
    assert doc["p_max"] == 4
    assert doc["generators"] == [8, 21, 55]
    assert (doc["r"], doc["ell"]) == (2, 1)
    assert doc["levels"][0]["elements"] == [0, 21, 42, 55, 76, 97, 110, 131]
    assert doc["levels"][1]["elements"] == [63, 84, 105, 118, 139, 152, 165, 186]
    cell = doc["cells"][0]
    assert set(cell) == {"x", "y", "value", "residue", "level"}


def test_export_json_is_stable(worked_example):
    assert export_json(worked_example) == export_json(build_table("fib", 6, 4, 4))


def test_export_smallest_case():
    doc = json.loads(export_json(build_table("fib", 3, 3, 0)))
    assert len(doc["levels"]) == 1
    assert len(doc["levels"][0]["elements"]) == 2


def _first_points_by_value_then_row(a1, a2, a3, p_max):
    """Level of each of the first p_max + 1 grid points per residue, in (value, y) order.

    Enumerates every point up to a value bound, doubling it until each residue
    has p_max + 1 points; the walk is never consulted.
    """
    bound = a1 * a3
    while True:
        by_residue = {}
        for y in range(bound // a3 + 1):
            for x in range((bound - y * a3) // a2 + 1):
                v = x * a2 + y * a3
                by_residue.setdefault(v % a1, []).append((v, y, x))
        if len(by_residue) == a1 and all(len(pts) > p_max for pts in by_residue.values()):
            break
        bound *= 2
    return {
        (x, y): rank + 1
        for pts in by_residue.values()
        for rank, (_, y, x) in enumerate(sorted(pts)[: p_max + 1])
    }


TRIPLE_GRID = [
    (kind, i, k, p_max)
    for kind in ("fib", "lucas")
    for i in range(3, 8)
    for k in range(3, i + 6)
    for p_max in (0, 3, 6, 12, 20)
]


def test_repeated_values_take_their_decompositions_in_row_order():
    for kind, i, k, p_max in TRIPLE_GRID:
        table = build_table(kind, i, k, p_max)
        got = {(c.x, c.y): c.level for c in table.cells if c.level is not None}
        want = _first_points_by_value_then_row(*table.params.gens.gens, p_max)
        assert got == want, (kind, i, k, p_max)


def test_rows_never_grow():
    # the staircase that lets the box width be read off the first row
    for kind, i, k, p_max in TRIPLE_GRID:
        table = build_table(kind, i, k, p_max)
        lengths = [len(row) for row in table.rows]
        assert lengths == sorted(lengths, reverse=True), (kind, i, k, p_max)
        assert table.width * table.height == sum(1 for _ in table.cells)


def test_cells_and_cell_and_rows_agree():
    # the views derived from rows: cells as read, cell(x, y), and the level rendering
    for kind, i, k, p_max in TRIPLE_GRID:
        table = build_table(kind, i, k, p_max)
        w, h = table.width, table.height
        cells = list(table.cells)
        assert cells == [table.cell(x, y) for y in range(h) for x in range(w)], (kind, i, k, p_max)
        assert list(table.cells) == cells
        block = fib(k)
        want = [
            " | ".join(" ".join(map(str, row[b : b + block])) for b in range(0, len(row), block))
            for row in table.rows
        ]
        lines = render_ascii(table, "level").splitlines()
        assert lines[1:] == want and "." not in "".join(lines[1:]), (kind, i, k, p_max)


def _stdlib_json(table):
    """The document as the stdlib encoder writes it: export_json's reference."""
    pr = table.params
    doc = {
        "kind": pr.kind.value,
        "i": pr.i,
        "k": pr.k,
        "p_max": len(table.levels) - 1,
        "generators": list(table.params.gens.gens),
        "r": pr.r,
        "ell": pr.ell,
        "levels": [
            {"level": q + 1, "p": q, "elements": sorted(aset.elements)}
            for q, aset in enumerate(table.levels)
        ],
        "cells": [
            {"x": c.x, "y": c.y, "value": c.value, "residue": c.residue, "level": c.level}
            for c in table.cells
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_export_json_matches_the_stdlib_encoder():
    # 760 tables, none refused by the budget
    for kind in ("fib", "lucas"):
        for i in range(3, 11):
            for k in range(3, i + 6):
                for p_max in range(5):
                    table = build_table(kind, i, k, p_max)
                    assert export_json(table) == _stdlib_json(table), (kind, i, k, p_max)


def test_export_json_of_empty_lists_and_huge_values():
    # no levels and no cells give "[]", and an int of any size is written exactly
    pr = params("fib", 6, 4)
    empty = ResidueTable(pr, (), ())
    assert export_json(empty) == _stdlib_json(empty)
    big = 10**80 + 7
    table = build_table("fib", 3, 3, 0)
    huge = table._replace(params=table.params._replace(x_i2=big, x_ik=big + 1))
    assert [(c.value, c.residue) for c in huge.cells] == [(0, 0), (big, 1)]
    assert export_json(huge) == _stdlib_json(huge)
