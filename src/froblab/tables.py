"""Residue tables: the ``t(x, y) = x*x_{i+2} + y*x_{i+k}`` grid.

Every Apery element of the triple ``(a1, a2, a3) = (x_i, x_{i+2}, x_{i+k})``
is a non-negative combination of ``a2`` and ``a3`` alone.  Within each
residue mod ``a1`` the grid's points are ranked by ``(value, y)``, and the
point of rank ``q <= p_max`` is annotated with level ``q + 1``: a repeated
value takes its decompositions at consecutive levels, in order of ``y``.

With ``v = x*a2 + y*a3``, the points before ``(x, y)`` are the smaller
values, all in the walk's ascending column for ``v % a1`` when ``q <= p_max``,
and the ``y // step`` decompositions ``(x + s*a3/d, y - s*a2/d)`` of ``v``,
where ``d = gcd(a2, a3)`` and ``step = a2/d``.  So the rank is
``q = bisect_left(column, v) + y // step``.  A step in ``x`` or in ``y``
maps the points before a cell to distinct points before its neighbour, so
the rank never drops: each row's annotated cells are a prefix no longer
than the row above's, and the box is the first row's width by the number
of non-empty rows.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from math import gcd
from typing import Iterator, NamedTuple, Optional

from .apery import VALUE_BUDGET, AperySet, apery_levels
from .closed_forms import TripleParams, params
from .sequences import SequenceKind, fib

__all__ = ["Cell", "ResidueTable", "build_table", "render_ascii", "export_json"]

_MODES = ("value", "residue", "level")


class Cell(NamedTuple):
    """One grid position; ``level`` is set only on annotated cells."""

    x: int
    y: int
    value: int
    residue: int
    level: Optional[int]


class ResidueTable(NamedTuple):
    """The annotated grid, trimmed to the bounding box of annotations.

    ``rows[y]`` holds the levels of row ``y``'s annotated cells from ``x = 0``
    (every row inside the box has at least one; rendering stops there), and
    the largest level is ``p_max = len(levels) - 1``.  A cell's value and
    residue follow from ``params``, so no cell is stored.
    """

    params: TripleParams
    levels: tuple[AperySet, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0  # rows only shrink

    def cell(self, x: int, y: int) -> Cell:
        if not (0 <= y < self.height and 0 <= x < self.width):
            raise IndexError(f"({x}, {y}) outside table {self.width}x{self.height}")
        pr, row = self.params, self.rows[y]
        v = x * pr.x_i2 + y * pr.x_ik
        return Cell(x, y, v, v % pr.x_i, row[x] if x < len(row) else None)

    @property
    def cells(self) -> Iterator[Cell]:
        """The box's cells row-major (y outer, x inner), built as they are read."""
        a1, a2, a3, width = self.params.x_i, self.params.x_i2, self.params.x_ik, self.width
        for y, row in enumerate(self.rows):
            for x in range(width):
                v = x * a2 + y * a3
                yield Cell(x, y, v, v % a1, row[x] if x < len(row) else None)


def build_table(kind: "SequenceKind | str", i: int, k: int, p_max: int) -> ResidueTable:
    """Grid for the triple with annotation levels ``1 .. p_max + 1``.

    Refuses a box of more than ``VALUE_BUDGET`` cells.
    """
    pr = params(kind, i, k)
    tup = pr.gens
    a1, a2, a3 = tup.gens

    levels = apery_levels(tup, p_max)
    columns = tuple(zip(*(aset.elements for aset in levels)))  # one per residue
    step = a2 // gcd(a2, a3)
    rows: list[list[int]] = []  # the levels of each row's annotated prefix
    for y in count():
        row = []
        for x in count():
            v = x * a2 + y * a3
            column = columns[v % a1]
            q = bisect_left(column, v) + y // step
            if q > p_max:
                break
            if column[q] != v:
                raise AssertionError(f"cell ({x}, {y}) has rank {q} but value {v} != {column[q]}")
            row.append(q + 1)
        if not row:
            break
        rows.append(row)

    annotated = sum(map(len, rows))
    if annotated != a1 * (p_max + 1):
        raise AssertionError(f"{annotated} cells annotated, expected {a1 * (p_max + 1)}")
    width, height = len(rows[0]), len(rows)
    if width * height > VALUE_BUDGET:
        raise ValueError(f"table box {width}x{height} is over the budget of {VALUE_BUDGET} cells")
    return ResidueTable(pr, levels, tuple(map(tuple, rows)))


def render_ascii(table: ResidueTable, mode: str = "value") -> str:
    """Deterministic plain-text rendering.

    One line per row (up to that row's last annotation), cells separated
    by single spaces and grouped into blocks of ``fib(k)`` columns joined
    by `` | ``.  ``mode`` selects what each cell shows: its value, its
    residue mod ``x_i``, or its annotation level.
    A table with no levels renders as the header line alone.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    pr = table.params
    a1, a2, a3 = pr.x_i, pr.x_i2, pr.x_ik
    lines = [
        f"t(x,y) = {a2}*x + {a3}*y  [mod {a1}]  levels={len(table.levels)} mode={mode}"
    ]
    block = fib(pr.k)
    for y, row in enumerate(table.rows):
        shown = row if mode == "level" else [x * a2 + y * a3 for x in range(len(row))]
        if mode == "residue":
            shown = [v % a1 for v in shown]
        tokens = list(map(str, shown))
        groups = [tokens[b : b + block] for b in range(0, len(tokens), block)]
        lines.append(" | ".join(" ".join(g) for g in groups))
    return "\n".join(lines) + "\n"


# export_json writes json.dumps(doc, sort_keys=True, indent=2) + "\n" by hand;
# the stdlib encoder runs in pure Python once it indents.
_CELL = '    {\n      "level": %s,\n      "residue": %d,\n      "value": %d,\n      "x": %d,\n      "y": %d\n    }'
_LEVEL = '    {\n      "elements": %s,\n      "level": %d,\n      "p": %d\n    }'
_AFTER_CELLS = """,
  "ell": %d,
  "generators": %s,
  "i": %d,
  "k": %d,
  "kind": "%s",
  "levels": %s,
  "p_max": %d,
  "r": %d
}
"""


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of already-indented items, closed at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def export_json(table: ResidueTable) -> str:
    """Stable JSON document (sorted keys, two-space indent, trailing newline).

    Keys ``cells``, ``ell``, ``generators``, ``i``, ``k``, ``kind``,
    ``levels`` (``elements`` ascending, ``level``, ``p``), ``p_max`` and
    ``r``; each cell has ``level`` (``null`` when unannotated), ``residue``,
    ``value``, ``x`` and ``y``.
    """
    pr = table.params
    levels = [
        _LEVEL % (_json_list(["        %d" % e for e in sorted(aset.elements)], "      "), q + 1, q)
        for q, aset in enumerate(table.levels)
    ]
    after = _AFTER_CELLS % (
        pr.ell, _json_list(["    %d" % g for g in pr.gens.gens], "  "),
        pr.i, pr.k, pr.kind.value, _json_list(levels, "  "), len(levels) - 1, pr.r,
    )
    cells = [
        _CELL % ("null" if c.level is None else c.level, c.residue, c.value, c.x, c.y)
        for c in table.cells
    ]
    if not cells:
        return '{\n  "cells": []' + after
    # the cells are most of the document, so it is built by this one join and
    # never copied: the rest rides on the first and the last cell
    cells[0] = '{\n  "cells": [\n' + cells[0]
    cells[-1] += "\n  ]" + after
    return ",\n".join(cells)
