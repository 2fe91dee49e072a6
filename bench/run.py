"""froblab benchmark: fixed CLI workloads, timed end to end, split by layer.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-fib-g --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --record        # re-record bench/golden.json

Every CLI call is a fresh process running ``froblab.cli.run(argv)`` with
``PYTHONPATH=src``, so the in-process caches start cold as they do for
every CLI user. Its stdout digest and exit code are checked against
``bench/golden.json``; a mismatch is a failed run.

``--trace 0`` reports the end-to-end metrics: the medians of ``wall_s``,
``cpu_s`` (user+sys of the whole process tree) and ``peak_rss_mb`` (the
largest single process), each read with ``os.wait4`` on that run's own
child, and ``setup_s`` (interpreter start plus ``import froblab.cli``,
timed in processes of its own). ``--trace 1`` reports the per-layer
split from ``bench/trace_child.py`` runs, interleaved with untraced runs
that give the tracing overhead and pool use. The printed lines before
the JSON give each metric with its unit, sample count and quartiles, and
``fail_rate`` (failed / attempted runs).

The workload inputs are fixed grids from the paper's verification; the
seed only sets the order in which rounds interleave. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

RUN_CLI = "import sys; from froblab.cli import run; sys.exit(run(sys.argv[1:]))"
IMPORT_CLI = "import froblab.cli"

# A fixed input size per workload; --jobs is always explicit because the
# CLI's default is os.cpu_count(). The traced run is serial: spans made in
# pool workers would be lost, and --jobs does not change stdout.
WORKLOADS = {
    "sweep-fib-g": [
        "verify", "--kind", "fib", "--what", "g", "--i", "3..12", "--k", "3..i+5",
        "--p", "0..4", "--jobs", "1", "--format", "text", "--quiet",
    ],
    "sweep-both-par": [
        "verify", "--kind", "both", "--what", "both", "--i", "3..12", "--k", "3..i+5",
        "--p", "4", "--jobs", "2", "--format", "csv", "--quiet",
    ],
    "table-deep": [
        "table", "--kind", "fib", "--i", "14", "--k", "6", "--pmax", "6",
        "--format", "json", "--quiet",
    ],
}

SETUP_PROBES_PER_ROUND = 3
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here (no program, no golden values)."""


@dataclass
class Run:
    stdout: bytes
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def jobs_of(argv: list[str]) -> int:
    return int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1


def traced_argv(argv: list[str]) -> list[str]:
    if "--jobs" not in argv:
        return argv
    at = argv.index("--jobs") + 1
    return argv[:at] + ["1"] + argv[at + 1 :]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Leftover JSON tables in a disk cache would stand in for the DP.
    env.pop("FROBLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], env: dict[str, str]) -> Run:
    """Run ``cmd`` to completion; time and resources are this child's own.

    ``os.wait4`` reports the child plus every descendant it reaped (pool
    workers), with ``ru_maxrss`` the largest single process among them.
    ``getrusage(RUSAGE_CHILDREN)`` would instead keep the high-water mark
    of every child this benchmark ever reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        stdout=out,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_ok(golden: dict, run: Run) -> bool:
    """A run counts only if stdout and exit code are exactly the golden ones.

    An empty stdout never matches a recorded payload, so a call that
    silently did nothing cannot pass as a fast run.
    """
    return digest(run.stdout) == golden["stdout_sha256"] and run.exit_code == golden["exit_code"]


def load_golden() -> dict:
    if not (ROOT / "src" / "froblab" / "cli.py").is_file():
        raise BenchError(f"no froblab sources under {ROOT / 'src'}")
    if not GOLDEN.is_file():
        raise BenchError(f"missing {GOLDEN}; run with --record first")
    return json.loads(GOLDEN.read_text())


# ----------------------------------------------------------------------
# traced runs


def self_times(spans: list) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (_, layer, _, _, _), t in zip(spans, own):
        out[layer] = out.get(layer, 0.0) + t
    return out


def run_traced(name: str, env: dict[str, str]) -> tuple[Run, dict]:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}.json"
    path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "trace_child.py"), str(path)] + traced_argv(WORKLOADS[name])
    run = spawn(cmd, env)
    trace = json.loads(path.read_text()) if path.is_file() else {"spans": [], "counts": {}}
    return run, trace


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


LAYERS = ("denumerant", "apery", "closed_forms", "grid", "render", "cli")
COUNT_KEYS = (
    "denumerant.calls", "denumerant.updates", "denumerant.max_cells",
    "apery.calls", "apery.triples", "closed_forms.calls", "sequences.calls",
)


def layer_metrics(run: Run, trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; the self times and
    ``trace.remainder_s`` (start-up, imports, exit) sum to its wall time."""
    layers = self_times(trace["spans"])
    m = {f"{layer}.busy_s": layers.get(layer, 0.0) for layer in LAYERS}
    m.update({k: trace["counts"].get(k, 0) for k in COUNT_KEYS})
    m["apery.levels_per_triple"] = ratio(m["apery.calls"], m["apery.triples"])
    m["apery.tables_per_call"] = ratio(m["denumerant.calls"], m["apery.calls"])
    m["trace.wall_s"] = run.wall_s
    m["trace.remainder_s"] = run.wall_s - sum(layers.values())
    return m


def counts_of(metrics: dict) -> dict[str, int]:
    return {k: metrics[k] for k in COUNT_KEYS}


# ----------------------------------------------------------------------
# measuring one workload


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def rounds(seconds: float, minimum: int):
    """Yield round numbers until the next round would overrun ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    n = 0
    while n < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield n
        last = time.perf_counter() - t0
        n += 1


def summarize(samples: dict[str, list[float]]) -> tuple[dict[str, float], dict[str, str]]:
    values, detail = {}, {}
    for key, xs in samples.items():
        if xs:
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            values[key] = statistics.median(xs)
            detail[key] = f"median of {len(xs)}; q1 {q1:.6g}, q3 {q3:.6g}"
    return values, detail


def run_cli(argv: list[str], env: dict[str, str]) -> Run:
    return spawn([sys.executable, "-c", RUN_CLI] + argv, env)


def probe_setup(env: dict[str, str]) -> Run:
    return spawn([sys.executable, "-c", IMPORT_CLI], env)


def measure(name: str, golden: dict, rng: random.Random, seconds: float, tally: Tally):
    """Medians of the end-to-end metrics over timed runs and setup probes."""
    env = child_env()
    want = golden["workloads"][name]
    # Untimed warm-up: byte-compiles the package once, as an installed
    # copy would have been.
    probe_setup(env)
    samples: dict[str, list[float]] = {k: [] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
    for _ in rounds(seconds, MIN_ROUNDS):
        steps = ["run"] + ["setup"] * SETUP_PROBES_PER_ROUND
        rng.shuffle(steps)
        for step in steps:
            if step == "run":
                run = run_cli(WORKLOADS[name], env)
                if tally.check(golden_ok(want, run)):
                    samples["wall_s"].append(run.wall_s)
                    samples["cpu_s"].append(run.cpu_s)
                    samples["peak_rss_mb"].append(run.peak_rss_mb)
            else:
                run = probe_setup(env)
                if tally.check(run.exit_code == 0 and not run.stdout):
                    samples["setup_s"].append(run.wall_s)
    return summarize(samples)


def measure_traced(name: str, golden: dict, rng: random.Random, seconds: float, tally: Tally):
    """Per-layer metrics from traced runs alternating with untraced ones.

    The overhead compares the traced run with untraced runs of the same
    (serial) argv; a pooled workload adds untraced pooled runs, which
    give ``cli.pool_util``.
    """
    env = child_env()
    want = golden["workloads"][name]
    argv = WORKLOADS[name]
    serial = traced_argv(argv)
    probe_setup(env)
    plain: list[Run] = []
    pooled: list[Run] = []
    traced: list[dict] = []
    for _ in rounds(seconds, MIN_TRACED_ROUNDS):
        steps = ["plain", "traced"] + (["pooled"] if serial != argv else [])
        rng.shuffle(steps)
        for step in steps:
            if step == "traced":
                run, trace = run_traced(name, env)
                if tally.check(golden_ok(want, run) and bool(trace["spans"])):
                    traced.append(layer_metrics(run, trace))
            else:
                run = run_cli(serial if step == "plain" else argv, env)
                if tally.check(golden_ok(want, run)):
                    (plain if step == "plain" else pooled).append(run)
    # The counts are deterministic: every traced run must agree.
    if len({json.dumps(counts_of(m), sort_keys=True) for m in traced}) > 1:
        tally.failed += 1
    pooled = pooled if serial != argv else plain
    if not plain or not pooled or not traced:
        return {}, {}
    # Report the traced run of median wall time whole, so that its self
    # times and remainder still add up to its own wall time.
    traced.sort(key=lambda m: m["trace.wall_s"])
    out = dict(traced[(len(traced) - 1) // 2])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(r.wall_s for r in plain)
    jobs = jobs_of(argv)
    out["cli.pool_util"] = statistics.median(r.cpu_s / (r.wall_s * jobs) for r in pooled)
    detail = {k: f"traced run of median wall among {len(traced)}" for k in out}
    detail["trace.overhead_s"] = f"minus the median of {len(plain)} untraced runs at --jobs 1"
    detail["cli.pool_util"] = f"median of {len(pooled)} untraced runs at --jobs {jobs}"
    return out, detail


# ----------------------------------------------------------------------
# reporting


def spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def describe(name: str, values: dict, detail: dict, tally: Tally, trace: bool) -> str:
    rate = ratio(tally.failed, tally.attempted)
    lines = [f"{name}: fail_rate {rate:.4f} ratio ({tally.failed}/{tally.attempted} runs failed)"]
    for spec in spec_metrics(trace):
        if spec["name"] in values:
            lines.append(
                f"  {spec['name']:<24} {values[spec['name']]:>12.6g} {spec['unit']:<6} {detail[spec['name']]}"
            )
    return "\n".join(lines)


def result(values: dict, trace: bool, prefix: str = "") -> dict:
    return {
        prefix + spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in spec_metrics(trace)
        if spec["name"] in values
    }


def record() -> None:
    """Write bench/golden.json from the program as it stands."""
    env = child_env()
    doc = {"nproc": os.cpu_count(), "python": platform.python_version(), "workloads": {}}
    for name, argv in WORKLOADS.items():
        run = run_cli(argv, env)
        traced, trace = run_traced(name, env)
        if digest(traced.stdout) != digest(run.stdout) or traced.exit_code != run.exit_code:
            raise BenchError(f"{name}: traced stdout differs from untraced stdout")
        doc["workloads"][name] = {
            "stdout_sha256": digest(run.stdout),
            "stdout_bytes": len(run.stdout),
            "exit_code": run.exit_code,
            "counts": counts_of(layer_metrics(traced, trace)),
        }
        print(f"{name}: exit {run.exit_code}, {len(run.stdout)} bytes, {run.wall_s:.2f} s", file=sys.stderr)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="re-record bench/golden.json and exit")
    args = ap.parse_args(argv)
    try:
        if args.record:
            record()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        golden = load_golden()
        rng = random.Random(args.seed)
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        rng.shuffle(names)
        tally = Tally()
        metrics = {}
        for name in names:
            own = Tally()
            measure_fn = measure_traced if args.trace else measure
            values, detail = measure_fn(name, golden, rng, args.seconds, own)
            print(describe(name, values, detail, own, bool(args.trace)))
            tally.attempted += own.attempted
            tally.failed += own.failed
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update(result(values, bool(args.trace), prefix))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(f"# nproc={os.cpu_count()} python={platform.python_version()}")
    doc = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
