"""Command-line interface.

stdout carries only the deterministic payload — two identical invocations
produce byte-identical stdout in every format.  Progress and wall-clock
timing go to stderr and are suppressed by ``--quiet``.

Exit codes: 0 success, 1 verification found mismatches, 2 invalid
arguments, 3 degenerate tuple (smallest generator is 1), 4 closed form
demanded (``--method closed``) where none is covered, 5 internal error
(an invariant check failed; a bug, not bad input).

Every command answers from one residue walk (``exact`` too, from levels
``p - 1`` and ``p``), which refuses, with exit 2 and before allocating, a
tuple whose ``a_1 * (p + 2)`` exceeds :data:`froblab.apery.VALUE_BUDGET`
(5,000,000); ``table`` also refuses a box of more cells than that.  A
sequence index above :data:`froblab.sequences.MAX_INDEX` (20,000) is
refused the same way.
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .apery import DegenerateTupleError, apery_levels, apery_set, p_frobenius
from .closed_forms import (
    NotCoveredError,
    TripleParams,
    closed_g,
    closed_n,
    compute_g,
    compute_n,
    gp_fib_two_gen,
    params,
    proposition_h,
    triple,
)
from .denumerant import GeneratorTuple, TupleValidationError
from .sequences import SequenceKind, seq
from .tables import Cell, build_table, export_json, render_ascii

__all__ = ["main", "run", "SweepSpec", "VerifyReport", "run_sweep", "run_proposition"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NOT_COVERED = 4
EXIT_INTERNAL = 5

_QUANTITIES = ("g", "n")


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
        out = []
        for kind in self.kinds:
            for i in range(self.i_lo, self.i_hi + 1):
                k_lo = _bound_at(self.k_lo, i)
                k_hi = _bound_at(self.k_hi, i)
                for k in range(max(k_lo, 3), k_hi + 1):
                    out.append((kind, i, k))
        return out


def _bound_at(bound: tuple[Optional[str], int], i: int) -> int:
    sym, off = bound
    return (i + off) if sym == "i" else off


def _row(
    kind: str, i: int, k: int, p: int, pr: TripleParams, quantity: str,
    closed: int, oracle: int, tag: str, verbatim: bool, match: Optional[bool],
) -> dict:
    """One report row: the CSV columns plus ``verbatim``."""
    return {
        "kind": kind,
        "i": i,
        "k": k,
        "p": p,
        "r": pr.r,
        "ell": pr.ell,
        "quantity": quantity,
        "closed_value": closed,
        "oracle_value": oracle,
        "case_tag": tag,
        "verbatim": verbatim,
        "match": match,
    }


def _sweep_point(kind: str, i: int, k: int, levels: range, quantities: tuple[str, ...]) -> list[dict]:
    """Rows for one triple at every level of ``levels``, from one oracle call."""
    asets = apery_levels(triple(kind, i, k), levels[-1])
    pr = params(kind, i, k)  # r and ell do not depend on p
    rows = []
    for p in levels:
        for qty in quantities:
            res = closed_g(kind, i, k, p) if qty == "g" else closed_n(kind, i, k, p)
            oracle = asets[p].frobenius() if qty == "g" else asets[p].sylvester()
            match = (res.value == oracle) if res.covered else None
            rows.append(
                _row(kind, i, k, p, pr, qty, res.value, oracle, str(res.tag), res.tag.verbatim, match)
            )
    return rows


_CSV_COLUMNS = (
    "kind", "i", "k", "p", "r", "ell", "quantity",
    "closed_value", "oracle_value", "case_tag", "match",
)


class VerifyReport(NamedTuple):
    rows: list[dict]
    wall_s: float = 0.0

    @property
    def points(self) -> int:
        return len({(r["kind"], r["i"], r["k"], r["p"]) for r in self.rows})

    @property
    def covered(self) -> list[dict]:
        return [r for r in self.rows if r["match"] is not None]

    @property
    def oracle_only(self) -> list[dict]:
        return [r for r in self.rows if r["match"] is None]

    @property
    def mismatches(self) -> list[dict]:
        return [r for r in self.rows if r["match"] is False]

    @property
    def verbatim_mismatches(self) -> list[dict]:
        return [r for r in self.mismatches if r["verbatim"]]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "points": self.points,
            "covered": len(self.covered),
            "matches": len(self.covered) - len(self.mismatches),
            "mismatches": len(self.mismatches),
            "verbatim_mismatches": len(self.verbatim_mismatches),
            "oracle_only": len(self.oracle_only),
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
            flag = " [verbatim]" if r["verbatim"] else ""
            lines.append(
                f"MISMATCH{flag} {r['quantity']} kind={r['kind']} i={r['i']} "
                f"k={r['k']} p={r['p']} r={r['r']} ell={r['ell']}: "
                f"closed={r['closed_value']} oracle={r['oracle_value']} "
                f"tag={r['case_tag']}"
            )
        lines.append("OK" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return _json_text({"summary": self.summary(), "mismatches": self.mismatches, "ok": self.ok})

    def to_csv(self) -> str:
        return _csv_text(_CSV_COLUMNS, ([r[c] for c in _CSV_COLUMNS] for r in self.rows))


def run_sweep(spec: SweepSpec, progress: Optional[Callable[[str], None]] = None) -> VerifyReport:
    """Evaluate closed forms against the Apery oracle over a grid."""
    t0 = time.monotonic()
    levels = range(spec.p_lo, spec.p_hi + 1)
    triples = spec.triples() if levels else []
    if triples and spec.i_lo < 3:
        raise ValueError(f"i must be >= 3, got {spec.i_lo}")
    if levels and spec.p_lo < 0:
        raise ValueError(f"p must be >= 0, got {spec.p_lo}")
    rows: list[dict] = []
    for idx, (kind, i, k) in enumerate(triples):
        rows.extend(_sweep_point(kind, i, k, levels, spec.quantities))
        if progress and (idx + 1) % 10 == 0:
            progress(f"{idx + 1}/{len(triples)} triples")
    return VerifyReport(rows, wall_s=time.monotonic() - t0)


def run_proposition(p_lo: int, p_hi: int, i_values: Sequence[int]) -> VerifyReport:
    """Check the pair-reduction thresholds against the oracle.

    For each level with a known threshold ``h``, the triples with
    ``k = i + h`` and ``k = i + h + 1`` must both have the same largest
    value as the pair alone.
    """
    t0 = time.monotonic()
    levels = range(p_lo, p_hi + 1)
    if levels and p_lo < 0:
        raise ValueError(f"p must be >= 0, got {p_lo}")
    rows = []
    for p in levels:
        h = proposition_h(p)
        if h is None:
            continue
        for i in i_values:
            for k in (i + h, i + h + 1):
                expected = gp_fib_two_gen(i, p)
                oracle = p_frobenius(triple("fib", i, k), p)
                pr = params("fib", i, k, p)
                tag = f"Prop/k>=i+{h}"
                rows.append(_row("fib", i, k, p, pr, "g", expected, oracle, tag, True, expected == oracle))
    return VerifyReport(rows, wall_s=time.monotonic() - t0)


# ----------------------------------------------------------------------
# argument plumbing

def _parse_gens(text: str) -> GeneratorTuple:
    try:
        nums = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError:
        raise TupleValidationError(f"could not parse generators from {text!r}") from None
    return GeneratorTuple(nums)


def _parse_int_span(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        v = int(text)
        return v, v
    return int(lo), int(hi)


def _parse_k_bound(tok: str) -> tuple[Optional[str], int]:
    """``N``, ``i``, ``i+N`` or ``i-N``; whitespace is ignored."""
    text = "".join(tok.split())
    if text.isdecimal():
        return (None, int(text))
    if text == "i":
        return ("i", 0)
    if text[:2] in ("i+", "i-") and text[2:].isdecimal():
        return ("i", int(text[1:]))
    raise ValueError(f"bad k bound {tok!r}: expected N, i, i+N or i-N")


def _parse_k_span(text: str) -> tuple[tuple[Optional[str], int], tuple[Optional[str], int]]:
    lo, sep, hi = text.partition("..")
    if not sep:
        b = _parse_k_bound(text)
        return b, b
    return _parse_k_bound(lo), _parse_k_bound(hi)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _note(args, text: str) -> None:
    if not args.quiet:
        print(text, file=sys.stderr)


# ----------------------------------------------------------------------
# output formats: json and csv are imported only by the run that writes them

def _json_text(doc, indent: Optional[int] = 2) -> str:
    """Sorted keys, ``indent`` spaces (one line when None), trailing newline."""
    import json

    return json.dumps(doc, sort_keys=True, indent=indent) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header row, then one line per row, each cell through :func:`_csv_cell`."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _write(args, doc, columns, rows, text: str, indent: Optional[int] = 2) -> None:
    """Emit one command's result as ``doc``, as ``rows`` under ``columns``, or as ``text``."""
    if args.format == "json":
        _emit(_json_text(doc, indent))
    elif args.format == "csv":
        _emit(_csv_text(columns, rows))
    else:
        _emit(text)


# ----------------------------------------------------------------------
# commands

def _cmd_compute(args) -> int:
    quantities = _QUANTITIES if args.what == "both" else (args.what,)
    results = []
    if args.gens is not None:
        tup = _parse_gens(args.gens)
        if tup.a1 == 1:
            raise DegenerateTupleError(f"smallest generator of {tup} is 1")
        if args.method == "closed":
            raise NotCoveredError("closed forms exist only for --kind triples")
        aset = apery_set(tup, args.p)
        header = {"gens": list(tup.gens), "p": args.p}
        for qty in quantities:
            value = aset.frobenius() if qty == "g" else aset.sylvester()
            results.append({"quantity": qty, "value": value, "method": "oracle", "tag": None})
    else:
        tup = triple(args.kind, args.i, args.k)
        header = {
            "kind": SequenceKind.parse(args.kind).value,
            "i": args.i,
            "k": args.k,
            "gens": list(tup.gens),
            "p": args.p,
        }
        for qty in quantities:
            fn = compute_g if qty == "g" else compute_n
            comp = fn(args.kind, args.i, args.k, args.p, method=args.method)
            results.append(
                {
                    "quantity": qty,
                    "value": comp.value,
                    "method": comp.path,
                    "tag": str(comp.tag) if comp.tag else None,
                }
            )

    gens_str = "(" + ", ".join(str(g) for g in header["gens"]) + ")"
    lines = []
    for r in results:
        how = r["method"] + (f" {r['tag']}" if r["tag"] else "")
        lines.append(f"{r['quantity']}_{args.p}{gens_str} = {r['value']}  [{how}]\n")
    columns = ("quantity", "value", "method", "tag")
    rows = [[r[c] for c in columns] for r in results]
    _write(args, {**header, "results": results}, columns, rows, "".join(lines))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.proposition:
        p_lo, p_hi = _parse_int_span(args.p) if args.p else (0, 6)
        i_lo, i_hi = _parse_int_span(args.i) if args.i else (3, 5)
        report = run_proposition(p_lo, p_hi, range(i_lo, i_hi + 1))
    else:
        kinds = ("fib", "lucas") if args.kind == "both" else (SequenceKind.parse(args.kind).value,)
        quantities = _QUANTITIES if args.what == "both" else (args.what,)
        # a range left out keeps SweepSpec's default
        grid = {"kinds": kinds, "quantities": quantities}
        if args.i:
            grid["i_lo"], grid["i_hi"] = _parse_int_span(args.i)
        if args.k:
            grid["k_lo"], grid["k_hi"] = _parse_k_span(args.k)
        if args.p:
            grid["p_lo"], grid["p_hi"] = _parse_int_span(args.p)
        report = run_sweep(SweepSpec(**grid), progress=lambda m: _note(args, m))

    if args.format == "json":
        _emit(report.to_json())
    elif args.format == "csv":
        _emit(report.to_csv())
    else:
        _emit(report.to_text())
    _note(args, f"wall time: {report.wall_s:.2f}s")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def _cmd_table(args) -> int:
    table = build_table(args.kind, args.i, args.k, args.pmax)
    if args.format == "json":
        _emit(export_json(table))
    elif args.format == "csv":
        _emit(_csv_text(Cell._fields, table.cells))
    else:
        _emit(render_ascii(table, mode=args.mode))
    return EXIT_OK


def _cmd_exact(args) -> int:
    tup = _parse_gens(args.gens)
    # In residue class j, d(n) counts the levels q with e_q(j) <= n, so with
    # e_{-1} := 0 the largest n there with exactly p is e_p(j) - a1 if >= e_{p-1}(j).
    levels = [s.elements for s in apery_levels(tup, args.p)]
    below = levels[-2] if args.p else (0,) * tup.a1
    value = max((top - tup.a1 for low, top in zip(below, levels[-1]) if top - low >= tup.a1), default=None)
    shown = "none" if value is None else str(value)
    text = f"largest n with exactly {args.p} representations: {shown}\n"
    doc = {"gens": list(tup.gens), "p": args.p, "value": value}
    _write(args, doc, ("p", "value"), [(args.p, value)], text)
    return EXIT_OK


def _cmd_seq(args) -> int:
    value = seq(args.kind, args.n)
    kind = SequenceKind.parse(args.kind).value
    doc = {"kind": kind, "n": args.n, "value": value}
    _write(args, doc, ("kind", "n", "value"), [(kind, args.n, value)], f"{value}\n", indent=None)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--quiet", action="store_true", help="suppress stderr progress")

    parser = argparse.ArgumentParser(
        prog="froblab",
        description="Exact level-p Frobenius/Sylvester numbers and closed forms "
        "for Fibonacci and Lucas triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[common], help="one tuple, one level")
    p_compute.add_argument("--gens", help='explicit generators, e.g. "8,21,55"')
    p_compute.add_argument("--kind", choices=("fib", "lucas"))
    p_compute.add_argument("--i", type=int)
    p_compute.add_argument("--k", type=int)
    p_compute.add_argument("--p", type=int, default=0)
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
        type=int,
        default=1,
        help="accepted for compatibility and checked to be >= 1; sweeps run in one process",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", parents=[common], help="render a residue table")
    p_table.add_argument("--kind", choices=("fib", "lucas"), required=True)
    p_table.add_argument("--i", type=int, required=True)
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--pmax", type=int, default=0)
    p_table.add_argument("--mode", choices=("value", "residue", "level"), default="value")
    p_table.set_defaults(func=_cmd_table)

    p_exact = sub.add_parser("exact", parents=[common], help="largest n with exactly p representations")
    p_exact.add_argument("--gens", required=True)
    p_exact.add_argument("--p", type=int, required=True)
    p_exact.set_defaults(func=_cmd_exact)

    p_seq = sub.add_parser("seq", parents=[common], help="print one sequence term")
    p_seq.add_argument("--kind", choices=("fib", "lucas"), required=True)
    p_seq.add_argument("--n", type=int, required=True)
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
    if args.command == "verify" and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.command == "verify" and args.proposition and (
        args.k is not None or args.kind != "fib" or args.what != "g"
    ):
        parser.error("--proposition checks fib g_p over --i and --p only; "
                     "it takes no --k, and --kind and --what only as fib and g")


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # A closed form multiplies terms near MAX_INDEX, so a printed value can
    # pass the interpreter's 4,300-digit str() limit; the inputs are already
    # parsed and bounded, so lift it for this call only.
    old_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _validate(args, parser)
        return args.func(args)
    except SystemExit as exc:
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
    raise SystemExit(run())
