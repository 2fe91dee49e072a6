"""Residue tables: the ``t(x, y) = x*x_{i+2} + y*x_{i+k}`` grid.

Every Apery element of the triple ``(x_i, x_{i+2}, x_{i+k})`` is a
non-negative combination of the two larger generators alone, so levels
0..p_max can be drawn as annotations on a two-dimensional grid.  A value
with one ``(x, y)`` decomposition is annotated there.  A value with several
recurs, once per decomposition, at consecutive levels of its residue (as far
as ``p_max`` reaches), and its copies take the decompositions in order of
increasing ``y``: the grid's points are ranked by ``(value, y)`` within each
residue, and the first ``p_max + 1`` are annotated.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional

from .apery import AperySet, apery_levels
from .closed_forms import TripleParams, params, triple
from .denumerant import GeneratorTuple
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

    ``cells`` is row-major (y outer, x inner) over the bounding box.
    ``row_extents[y]`` is the largest annotated ``x`` in row ``y`` (every
    row inside the box has at least one annotation; rendering stops there).
    """

    params: TripleParams  # its p field is the largest level minus one
    gens: GeneratorTuple
    levels: tuple[AperySet, ...]
    cells: tuple[Cell, ...]
    row_extents: tuple[int, ...]

    @property
    def height(self) -> int:
        return len(self.row_extents)

    @property
    def width(self) -> int:
        return max(self.row_extents) + 1 if self.row_extents else 0

    def cell(self, x: int, y: int) -> Cell:
        if not (0 <= y < self.height and 0 <= x < self.width):
            raise IndexError(f"({x}, {y}) outside table {self.width}x{self.height}")
        return self.cells[y * self.width + x]


def _least_cell(m: int, a2: int, a3: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest ``(y, x)`` with ``x*a2 + y*a3 == m``."""
    d = gcd(a2, a3)
    if m % d:
        return None
    # The least y >= 0 with y*a3 ≡ m (mod a2); any other solution has a larger y.
    y = m // d * pow(a3 // d, -1, a2 // d) % (a2 // d)
    if y * a3 > m:
        return None
    return ((m - y * a3) // a2, y)


def build_table(kind: "SequenceKind | str", i: int, k: int, p_max: int) -> ResidueTable:
    """Grid for the triple with annotation levels ``1 .. p_max + 1``."""
    if p_max < 0:
        raise ValueError(f"p_max must be >= 0, got {p_max}")
    pr = params(kind, i, k, p_max)
    tup = triple(kind, i, k)
    a1, a2, a3 = tup.gens

    levels = apery_levels(tup, p_max)
    # Successive decompositions of one value differ by (-a3/d, +a2/d).
    d = gcd(a2, a3)
    placed: dict[tuple[int, int], int] = {}
    for column in zip(*(aset.elements for aset in levels)):  # one residue
        t = 0
        for q, m in enumerate(column):
            t = t + 1 if q and m == column[q - 1] else 0  # copy number of m
            spot = _least_cell(m, a2, a3)
            if spot is None:
                raise AssertionError(f"no (x, y) decomposition for element {m}")
            xy = (spot[0] - t * (a3 // d), spot[1] + t * (a2 // d))
            if xy[0] < 0:
                raise AssertionError(f"element {m} occurs more often than it decomposes")
            if xy in placed:
                raise AssertionError(f"cell {xy} annotated twice (value {m})")
            placed[xy] = q + 1

    ymax = max(y for _, y in placed)
    xmax = max(x for x, _ in placed)
    extents = [-1] * (ymax + 1)
    for x, y in placed:
        extents[y] = max(extents[y], x)
    if -1 in extents:
        raise AssertionError(f"row {extents.index(-1)} has no annotation")
    row_extents = tuple(extents)
    cells = tuple(
        Cell(x, y, x * a2 + y * a3, (x * a2 + y * a3) % a1, placed.get((x, y)))
        for y in range(ymax + 1)
        for x in range(xmax + 1)
    )
    return ResidueTable(pr, tup, levels, cells, row_extents)


def render_ascii(table: ResidueTable, mode: str = "value") -> str:
    """Deterministic plain-text rendering.

    One line per row (up to that row's last annotation), cells separated
    by single spaces and grouped into blocks of ``fib(k)`` columns joined
    by `` | ``.  ``mode`` selects what each cell shows: its value, its
    residue mod ``x_i``, or its annotation level (``.`` when none).
    A table with no levels renders as the header line alone.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    pr = table.params
    a1, a2, a3 = table.gens.gens
    lines = [
        f"t(x,y) = {a2}*x + {a3}*y  [mod {a1}]  levels={len(table.levels)} mode={mode}"
    ]
    block = fib(pr.k)
    for y, extent in enumerate(table.row_extents):
        tokens = []
        for x in range(extent + 1):
            cell = table.cell(x, y)
            if mode == "value":
                tokens.append(str(cell.value))
            elif mode == "residue":
                tokens.append(str(cell.residue))
            else:
                tokens.append(str(cell.level) if cell.level is not None else ".")
        groups = [tokens[b : b + block] for b in range(0, len(tokens), block)]
        lines.append(" | ".join(" ".join(g) for g in groups))
    return "\n".join(lines) + "\n"


def export_json(table: ResidueTable) -> str:
    """Stable JSON document (sorted keys, two-space indent, trailing newline)."""
    import json

    pr = table.params
    doc = {
        "kind": pr.kind.value,
        "i": pr.i,
        "k": pr.k,
        "p_max": pr.p,
        "generators": list(table.gens.gens),
        "r": pr.r,
        "ell": pr.ell,
        "levels": [
            {"level": q + 1, "p": q, "elements": sorted(aset.elements)}
            for q, aset in enumerate(table.levels)
        ],
        "cells": [
            {
                "x": c.x,
                "y": c.y,
                "value": c.value,
                "residue": c.residue,
                "level": c.level,
            }
            for c in table.cells
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
