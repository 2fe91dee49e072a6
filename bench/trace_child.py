"""Run one froblab CLI call with spans around each layer's public functions.

Usage: python3 bench/trace_child.py TRACE_OUT ARG...

The program is not edited. Each wrapper is installed on the name the
caller looks up (the modules bind with ``from ... import``), so a call is
seen at the boundary where it crosses from one layer into the next.
Spans ``(name, layer, start, end, parent)`` and the counters stay in
memory and are written to TRACE_OUT as JSON when the CLI call returns.
The CLI's stdout and exit code pass through unchanged, so the caller can
check them against the golden values.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import froblab.apery
import froblab.cli
import froblab.closed_forms
import froblab.tables

spans: list = []
stack: list[int] = []
counts = {
    "denumerant.calls": 0,
    "denumerant.updates": 0,
    "denumerant.max_cells": 0,
    "apery.calls": 0,
    "closed_forms.calls": 0,
    "sequences.calls": 0,
}
triples: set = set()


def _span(owner, attr: str, layer: str, before=None) -> None:
    """Replace ``owner.attr`` with a wrapper that records one span per call.

    ``before(args)`` may count the call from its arguments and return the
    arguments to pass on. Names a later version of the program no longer
    has are skipped, so the trace degrades to fewer spans, not an error.
    """
    fn = getattr(owner, attr, None)
    if fn is None:
        return
    name = f"{getattr(owner, '__name__', '')}.{attr}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args = before(args)
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[sid] = (name, layer, start, end, parent)

    setattr(owner, attr, traced)


def _count(owner, attr: str, key: str) -> None:
    """Count calls without a span; used where the callee is too cheap to time."""
    fn = getattr(owner, attr, None)
    if fn is None:
        return

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, counted)


def _bump(key: str):
    def before(args):
        counts[key] += 1
        return args

    return before


def _with_gens(args, at: int):
    """Return the generators at ``args[at]`` and the args to pass on.

    A one-shot iterable is materialised so the callee still sees it.
    """
    gens = args[at]
    if hasattr(gens, "gens"):
        return gens.gens, args
    gens = tuple(gens)
    return gens, args[:at] + (gens,) + args[at + 1 :]


def _on_denumerant(args):
    gens, args = _with_gens(args, 1)
    limit = args[0]
    counts["denumerant.calls"] += 1
    # Computed from the arguments, not measured: the DP touches each of
    # the limit+1 cells once per generator.
    counts["denumerant.updates"] += (limit + 1) * len(gens)
    counts["denumerant.max_cells"] = max(counts["denumerant.max_cells"], limit + 1)
    return args


def _on_apery(args):
    gens, args = _with_gens(args, 0)
    counts["apery.calls"] += 1
    triples.add(gens)
    return args


def install() -> None:
    cli, tables, cf, apery = froblab.cli, froblab.tables, froblab.closed_forms, froblab.apery
    _span(apery, "denumerant_table", "denumerant", _on_denumerant)
    for mod in (cli, tables, cf):
        _span(mod, "apery_set", "apery", _on_apery)
    # The closing formulas run on the returned set, outside apery_set.
    _span(apery.AperySet, "frobenius", "apery")
    _span(apery.AperySet, "sylvester", "apery")
    for mod in (cli, tables):
        for attr in ("closed_g", "closed_n", "params", "triple"):
            _span(mod, attr, "closed_forms", _bump("closed_forms.calls"))
    for mod, attr in ((cf, "fib"), (cf, "seq"), (tables, "fib"), (cli, "seq")):
        _count(mod, attr, "sequences.calls")
    # The grid walk between argument parsing and the oracle.
    _span(cli, "run_sweep", "grid")
    _span(cli, "_sweep_point", "grid")
    _span(cli, "build_table", "grid")
    for attr in ("to_text", "to_csv", "to_json"):
        _span(cli.VerifyReport, attr, "render")
    _span(cli, "export_json", "render")
    _span(cli, "render_ascii", "render")
    _span(cli, "run", "cli")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    install()
    try:
        code = froblab.cli.run(cli_args)
    finally:
        sys.stdout.flush()
        counts["apery.triples"] = len(triples)
        with open(out_path, "w") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
