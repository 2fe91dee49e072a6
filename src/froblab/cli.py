"""Command-line interface.

stdout carries only the deterministic payload — two identical invocations
produce byte-identical stdout in every format.  Progress and wall-clock
timing go to stderr and are suppressed by ``--quiet``.

Exit codes: 0 success, 1 verification found mismatches, 2 invalid
arguments, 3 degenerate tuple (smallest generator is 1), 4 closed form
demanded (``--method closed``) where none is covered, 5 internal error
(an invariant check failed; a bug, not bad input).  A stdout that its reader
closes before the output is written exits 0 with nothing on stderr, never 1.

Every command answers from at most one residue walk, taken through
:mod:`froblab.route`, or :func:`froblab.tables.build_table` for ``table``; a
walk, box or sequence index over its bound exits 2 before allocating, and
``verify`` checks its grid, not its rows, before the first walk.  CSV rows and
``table``'s JSON are written as they are made, the rest as one string.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .closed_forms import (
    NotCoveredError,
    TripleParams,
    params,
    proposition_g,
    proposition_h,
)
from .generators import DegenerateTupleError, GeneratorTuple, TupleValidationError
from .route import _QUANTITIES, _check_grid, _largest_with_exactly, _side_by_side, compute
from .sequences import seq
from .tables import Cell, _json_pieces, build_table, render_ascii

__all__ = ["main", "run", "SweepSpec", "VerifyReport", "run_sweep", "run_proposition"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NOT_COVERED = 4
EXIT_INTERNAL = 5


# ----------------------------------------------------------------------
# sweep machinery (used by the `verify` command and by the test suite)

class SweepSpec(NamedTuple):
    """A verification grid.

    ``k`` bounds may depend on ``i`` (the CLI accepts e.g. ``3..i+5``), so
    they are stored as offsets: ``(None, 3)`` means the constant 3 and
    ``("i", 5)`` means ``i + 5``.
    """

    kinds: tuple[str, ...] = ("fib",)
    i_lo: int = 3
    i_hi: int = 12
    k_lo: tuple[Optional[str], int] = (None, 3)
    k_hi: tuple[Optional[str], int] = ("i", 5)
    p_lo: int = 0
    p_hi: int = 4
    quantities: tuple[str, ...] = ("g",)

    def triples(self) -> list[tuple[str, int, int]]:
        """Every ``(kind, i, k)`` in order; past :meth:`largest`'s ``i`` no ``k`` range is left."""
        top = self.largest()
        return [
            (kind, i, k)
            for kind in self.kinds
            for i in range(self.i_lo, top[0] + 1)
            for k in range(max(_bound_at(self.k_lo, i), 3), _bound_at(self.k_hi, i) + 1)
        ] if top else []

    def largest(self) -> Optional[tuple[int, int]]:
        """``(i, k)`` of the largest triples: the last ``i`` with a ``k`` range, at its top."""
        i = self.i_hi
        if self.k_lo[0] == "i" and self.k_hi[0] is None:  # the k range empties from some i on
            i = min(i, self.k_hi[1] - self.k_lo[1])
        k_hi = _bound_at(self.k_hi, i)
        return (i, k_hi) if i >= self.i_lo and max(_bound_at(self.k_lo, i), 3) <= k_hi else None


def _bound_at(bound: tuple[Optional[str], int], i: int) -> int:
    sym, off = bound
    return (i + off) if sym == "i" else off


class Row(NamedTuple):
    """One report row: the CSV columns in order, then ``verbatim``."""

    kind: str
    i: int
    k: int
    p: int
    r: int
    ell: int
    quantity: str
    closed_value: int
    oracle_value: int
    case_tag: str
    match: Optional[bool]
    verbatim: bool


def _sweep_point(pr: TripleParams, levels: Sequence[int], quantities: Sequence[str],
                 form: Optional[Callable] = None) -> list[Row]:
    """Rows for one triple at every level of ``levels`` (ascending), from one walk, each
    quantity checked against its closed form, or against ``form`` if given."""
    rows = []
    for p, qty, res, oracle in _side_by_side(pr, levels, quantities, form):
        match = (res.value == oracle) if res.covered else None
        rows.append(Row(pr.kind.value, pr.i, pr.k, p, pr.r, pr.ell, qty, res.value, oracle,
                        str(res.tag), match, res.tag.verbatim))
    return rows


class VerifyReport(NamedTuple):
    """A one-pass tally of a grid's rows: three counts and the mismatching rows."""

    rows: int
    points: int
    covered: int
    mismatches: list[Row]

    @classmethod
    def of(cls, rows: Iterable[Row]) -> "VerifyReport":
        """Tally ``rows``, in which each point's rows are consecutive, keeping only mismatches."""
        count = points = covered = 0
        mismatches = []
        point = None
        for row in rows:
            count += 1
            if row[:4] != point:  # (kind, i, k, p)
                points += 1
                point = row[:4]
            if row.match is not None:
                covered += 1
                if not row.match:
                    mismatches.append(row)
        return cls(count, points, covered, mismatches)

    @property
    def verbatim_mismatches(self) -> list[Row]:
        return [r for r in self.mismatches if r.verbatim]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> dict:
        return {
            "rows": self.rows,
            "points": self.points,
            "covered": self.covered,
            "matches": self.covered - len(self.mismatches),
            "mismatches": len(self.mismatches),
            "verbatim_mismatches": len(self.verbatim_mismatches),
            "oracle_only": self.rows - self.covered,
        }

    def to_text(self) -> str:
        s = self.summary()
        lines = [
            f"checked {s['rows']} values at {s['points']} grid points",
            f"covered by a closed form: {s['covered']}  "
            f"(matches {s['matches']}, mismatches {s['mismatches']})",
            f"oracle-only: {s['oracle_only']}",
        ]
        for r in self.mismatches:
            flag = " [verbatim]" if r.verbatim else ""
            lines.append(
                f"MISMATCH{flag} {r.quantity} kind={r.kind} i={r.i} "
                f"k={r.k} p={r.p} r={r.r} ell={r.ell}: "
                f"closed={r.closed_value} oracle={r.oracle_value} "
                f"tag={r.case_tag}"
            )
        lines.append("OK" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"


def run_sweep(spec: SweepSpec, progress: Optional[Callable[[str], None]] = None) -> Iterator[Row]:
    """The grid's rows, closed forms against the Apery oracle, made one walk at a time
    as they are read; the grid is checked before this returns."""
    if not set(spec.quantities) <= set(_QUANTITIES):
        raise ValueError(f"quantities must be from {_QUANTITIES}, got {spec.quantities!r}")
    levels = range(spec.p_lo, spec.p_hi + 1)
    if not levels:
        raise ValueError(f"--p {spec.p_lo}..{spec.p_hi} selects no level")
    if spec.p_lo < 0:
        raise ValueError(f"p must be >= 0, got {spec.p_lo}")
    if spec.i_lo > spec.i_hi:
        raise ValueError(f"--i {spec.i_lo}..{spec.i_hi} selects no index")
    top = spec.largest()  # checked before the grid is listed
    if top is None:
        raise ValueError(f"--k selects no k at any i of {spec.i_lo}..{spec.i_hi}")
    _check_grid(spec.kinds, spec.i_lo, *top, spec.p_hi)
    triples = spec.triples()

    def rows() -> Iterator[Row]:
        for idx, (kind, i, k) in enumerate(triples):
            yield from _sweep_point(params(kind, i, k), levels, spec.quantities)
            if progress and (idx + 1) % 10 == 0:
                progress(f"{idx + 1}/{len(triples)} triples")

    return rows()


def run_proposition(p_lo: int, p_hi: int, i_values: Sequence[int]) -> list[Row]:
    """Rows checking the pair-reduction thresholds against the oracle, by ``(p, i, k)``.

    For each level with a known threshold ``h``, the triples with
    ``k = i + h`` and ``k = i + h + 1`` must both have the same largest
    value as the pair alone.
    """
    levels = range(p_lo, p_hi + 1)
    if levels and p_lo < 0:
        raise ValueError(f"p must be >= 0, got {p_lo}")
    thresholds = {p: h for p in levels if (h := proposition_h(p)) is not None}
    if not thresholds:
        raise ValueError(f"--p {p_lo}..{p_hi} selects no level with a threshold")
    if not i_values:
        raise ValueError("--i selects no index")
    i_top = max(i_values)  # the least and the largest triple, before any walk
    _check_grid(("fib",), min(i_values), i_top, i_top + max(thresholds.values()) + 1, max(thresholds))
    checked_at: dict[tuple[int, int], list[int]] = {}  # (i, k) -> its levels, ascending
    for p, h in thresholds.items():
        for i in i_values:
            for k in (i + h, i + h + 1):
                checked_at.setdefault((i, k), []).append(p)
    rows = []
    for (i, k), ps in checked_at.items():  # one walk per triple, to its highest level
        rows += _sweep_point(params("fib", i, k), ps, ("g",), proposition_g)
    rows.sort(key=lambda r: (r.p, r.i, r.k))
    return rows


# ----------------------------------------------------------------------
# argument plumbing

_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def integer(text: str) -> int:
    """An integer in ASCII digits, with an optional sign and blanks around it.

    Every integer a flag carries is read here; ``int()`` alone also takes
    ``1_0`` and non-ASCII digits such as ``٣``.  argparse names this
    function in its error, so it has no leading underscore.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def _parse_gens(text: str) -> GeneratorTuple:
    try:
        nums = [integer(tok) for tok in text.split(",")]
    except ValueError:
        raise TupleValidationError(f"could not parse generators from --gens {text!r}") from None
    return GeneratorTuple(nums)


def _parse_span(flag: str, text: str, end: Callable = integer) -> tuple:
    """``N`` or ``N..M``, each end read by ``end``; an :func:`integer` end's error names ``flag``."""
    lo, sep, hi = text.partition("..")
    try:
        return (end(lo), end(hi)) if sep else (end(text),) * 2
    except ValueError:
        if end is not integer:  # _parse_k_bound's error names the bound
            raise
        raise ValueError(f"bad {flag} range {text!r}: expected N or N..M") from None


def _parse_k_bound(tok: str) -> tuple[Optional[str], int]:
    """``N``, ``i``, ``i+N`` or ``i-N``; whitespace is ignored."""
    text = "".join(tok.split())
    if text == "i":
        return ("i", 0)
    try:
        if text[:2] in ("i+", "i-"):
            return ("i", integer(text[1:]))
        if text[:1] not in ("+", "-"):
            return (None, integer(text))
    except ValueError:
        pass
    raise ValueError(f"bad k bound {tok!r}: --k takes N, i, i+N or i-N")


# flags whose value may be a list or range; argparse reads such a value that
# starts with "-" (``--i -5..3``) as the next flag unless it is a plain number
_LIST_FLAGS = ("--gens", "--i", "--k", "--p")
_DASH_DIGIT = re.compile(r"-[0-9]")


def _join_dashed_values(argv: Sequence[str]) -> list[str]:
    """Spell ``--i -5..3`` as ``--i=-5..3``, so that the flag's own check sees the value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _LIST_FLAGS and _DASH_DIGIT.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _note(args, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


# ----------------------------------------------------------------------
# output formats: json and csv are imported only by the run that writes them

def _csv_writer(columns: Sequence[str]):
    """A CSV writer on stdout that has written the header row; ``None`` is an empty cell."""
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    return writer


def _csv_passing(rows: Iterable[Row]) -> Iterator[Row]:
    """``rows`` passed on as they come, each first written as a CSV line under a header row."""
    writer = _csv_writer(Row._fields[:-1])
    spelled = {True: "true", False: "false", None: None}  # the only boolean any CSV holds
    for r in rows:
        writer.writerow((*r[:-2], spelled[r.match]))
        yield r


def _write(args, doc, columns, rows, text: str, indent: Optional[int] = 2) -> None:
    """Emit one command's result as ``doc``, as ``rows`` under ``columns``, or as ``text``."""
    if args.format == "csv":
        return _csv_writer(columns).writerows(rows)
    if args.format == "json":
        import json

        text = json.dumps(doc, sort_keys=True, indent=indent) + "\n"
    sys.stdout.write(text)


# ----------------------------------------------------------------------
# commands

def _cmd_compute(args) -> int:
    quantities = _QUANTITIES if args.what == "both" else (args.what,)
    if args.gens is not None:
        source = tup = _parse_gens(args.gens)
        header = {}
    else:
        source = params(args.kind, args.i, args.k)
        tup = source.gens
        header = {"kind": source.kind.value, "i": args.i, "k": args.k}
    comps = compute(quantities, source, args.p, args.method)

    columns = ("quantity", "value", "method", "tag")
    rows = [(qty, c.value, c.path, str(c.tag) if c.tag else None) for qty, c in zip(quantities, comps)]
    text = "".join(
        f"{qty}_{args.p}{tup} = {value}  [{path}{f' {tag}' if tag else ''}]\n"
        for qty, value, path, tag in rows
    )
    results = [dict(zip(columns, row)) for row in rows]
    doc = {**header, "gens": list(tup.gens), "p": args.p, "results": results}
    _write(args, doc, columns, rows, text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    t0 = time.monotonic()
    if args.proposition:
        p_lo, p_hi = (0, 6) if args.p is None else _parse_span("--p", args.p)
        i_lo, i_hi = (3, 5) if args.i is None else _parse_span("--i", args.i)
        rows = run_proposition(p_lo, p_hi, range(i_lo, i_hi + 1))
    else:
        kinds = ("fib", "lucas") if args.kind == "both" else (args.kind,)
        quantities = _QUANTITIES if args.what == "both" else (args.what,)
        # a range left out keeps SweepSpec's default
        grid = {"kinds": kinds, "quantities": quantities}
        if args.i is not None:
            grid["i_lo"], grid["i_hi"] = _parse_span("--i", args.i)
        if args.k is not None:
            grid["k_lo"], grid["k_hi"] = _parse_span("--k", args.k, _parse_k_bound)
        if args.p is not None:
            grid["p_lo"], grid["p_hi"] = _parse_span("--p", args.p)
        rows = run_sweep(SweepSpec(**grid), progress=lambda m: _note(args, m))

    if args.format == "csv":  # the grid is checked: each row is written as it is tallied
        report = VerifyReport.of(_csv_passing(rows))
    else:
        report = VerifyReport.of(rows)
        mismatches = [r._asdict() for r in report.mismatches]
        doc = {"summary": report.summary(), "mismatches": mismatches, "ok": report.ok}
        _write(args, doc, (), (), report.to_text())
    _note(args, f"wall time: {time.monotonic() - t0:.2f}s")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_table(args) -> int:
    table = build_table(args.kind, args.i, args.k, args.pmax)
    if args.format == "json":
        sys.stdout.writelines(_json_pieces(table))
    elif args.format == "csv":
        _csv_writer(Cell._fields).writerows(table.cells)
    else:
        sys.stdout.write(render_ascii(table, mode=args.mode))
    return EXIT_OK


def _cmd_exact(args) -> int:
    tup = _parse_gens(args.gens)
    value = _largest_with_exactly(tup, args.p)
    shown = "none" if value is None else str(value)
    text = f"largest n with exactly {args.p} representations: {shown}\n"
    doc = {"gens": list(tup.gens), "p": args.p, "value": value}
    _write(args, doc, ("p", "value"), [(args.p, value)], text)
    return EXIT_OK


def _cmd_seq(args) -> int:
    value = seq(args.kind, args.n)
    doc = {"kind": args.kind, "n": args.n, "value": value}
    _write(args, doc, ("kind", "n", "value"), [(args.kind, args.n, value)], f"{value}\n", indent=None)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--quiet", action="store_true",
                        help="drop verify's progress and wall-time lines on stderr; errors still print")

    parser = argparse.ArgumentParser(
        prog="froblab",
        description="Exact level-p Frobenius/Sylvester numbers and closed forms "
        "for Fibonacci and Lucas triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common], help="one tuple, one level")
    p_compute.add_argument("--gens", help='explicit generators, e.g. "8,21,55"')
    p_compute.add_argument("--kind", choices=("fib", "lucas"))
    p_compute.add_argument("--i", type=integer)
    p_compute.add_argument("--k", type=integer)
    p_compute.add_argument("--p", type=integer, default=0)
    p_compute.add_argument("--what", choices=("g", "n", "both"), default="both")
    p_compute.add_argument("--method", choices=("auto", "closed", "oracle"), default="auto")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", parents=[common], help="closed forms vs oracle on a grid")
    p_verify.add_argument("--kind", choices=("fib", "lucas", "both"), default="fib")
    p_verify.add_argument("--i", help='index range, e.g. "3..12"')
    p_verify.add_argument("--k", help='range, absolute or i-relative, e.g. "3..i+5"')
    p_verify.add_argument("--p", help='level range, e.g. "0..4"')
    p_verify.add_argument("--what", choices=("g", "n", "both"), default="g")
    p_verify.add_argument(
        "--proposition",
        action="store_true",
        help="check the pair-reduction thresholds (fib g_p over --i and --p, "
        "default 3..5 and 0..6) instead of formula branches; refuses --k, and "
        "--kind or --what other than fib and g",
    )
    p_verify.add_argument(
        "--jobs",
        type=integer,
        default=1,
        help="accepted for compatibility and checked to be >= 1; sweeps run in one process",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", parents=[common], help="render a residue table")
    p_table.add_argument("--kind", choices=("fib", "lucas"), required=True)
    p_table.add_argument("--i", type=integer, required=True)
    p_table.add_argument("--k", type=integer, required=True)
    p_table.add_argument("--pmax", type=integer, default=0)
    p_table.add_argument("--mode", choices=("value", "residue", "level"), default="value",
                         help="what a text cell shows; json and csv always carry value, residue and level")
    p_table.set_defaults(func=_cmd_table)

    p_exact = sub.add_parser("exact", parents=[common], help="largest n with exactly p representations")
    p_exact.add_argument("--gens", required=True)
    p_exact.add_argument("--p", type=integer, required=True)
    p_exact.set_defaults(func=_cmd_exact)

    p_seq = sub.add_parser("seq", parents=[common], help="print one sequence term")
    p_seq.add_argument("--kind", choices=("fib", "lucas"), required=True)
    p_seq.add_argument("--n", type=integer, required=True)
    p_seq.set_defaults(func=_cmd_seq)

    return parser


def _validate(args, parser: argparse.ArgumentParser) -> None:
    if args.command == "compute":
        if (args.gens is None) == (args.kind is None) or (
            args.gens is not None and (args.i is not None or args.k is not None)
        ):
            parser.error("compute needs --gens or (--kind --i --k), not both")
        if args.gens is None and (args.i is None or args.k is None):
            parser.error("--kind requires --i and --k")
    if args.command in ("compute", "exact") and args.p < 0:
        parser.error("--p must be >= 0")
    if args.command == "table" and args.pmax < 0:
        parser.error("--pmax must be >= 0")
    if args.command == "verify" and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.command == "verify" and args.proposition and (
        args.k is not None or args.kind != "fib" or args.what != "g"
    ):
        parser.error("--proposition checks fib g_p over --i and --p only; "
                     "it takes no --k, and --kind and --what only as fib and g")


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    old_limit = None
    try:
        args = parser.parse_args(_join_dashed_values(sys.argv[1:] if argv is None else argv))
        # A closed form multiplies terms near MAX_INDEX, so a printed value can
        # pass the interpreter's 4,300-digit str() limit; the inputs are now
        # parsed and bounded, so lift it for this call only.
        old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if old_limit is not None:
            sys.set_int_max_str_digits(0)
        _validate(args, parser)
        return args.func(args)
    except SystemExit as exc:  # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except TupleValidationError as exc:
        print(f"froblab: invalid tuple: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateTupleError as exc:
        print(f"froblab: degenerate tuple: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NotCoveredError as exc:
        print(f"froblab: closed form not covered: {exc}", file=sys.stderr)
        return EXIT_NOT_COVERED
    except ValueError as exc:
        print(f"froblab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"froblab: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:  # the idiom of the Note on SIGPIPE in the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)
