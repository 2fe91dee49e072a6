"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run as bench  # noqa: E402


def test_empty_stdout_fails_golden_check():
    golden = bench.load_golden()
    for want in golden["workloads"].values():
        silent = bench.Run(b"", want["exit_code"], 0.1, 0.1, 10.0)
        assert not bench.golden_ok(want, silent)


def test_module_entry_point_is_caught_as_silent():
    # `python -m froblab.cli` has no __main__ guard: it exits 0 having done
    # nothing. The golden check must refuse that run rather than time it.
    golden = bench.load_golden()["workloads"]["sweep-fib-g"]
    argv = bench.WORKLOADS["sweep-fib-g"]
    run = bench.spawn([sys.executable, "-m", "froblab.cli"] + argv, bench.child_env())
    assert run.exit_code == 0 and run.stdout == b""
    assert not bench.golden_ok(golden, run)


def test_child_env_drops_disk_cache(monkeypatch):
    monkeypatch.setenv("FROBLAB_CACHE_DIR", "somewhere")
    env = bench.child_env()
    assert "FROBLAB_CACHE_DIR" not in env
    assert env["PYTHONPATH"] == str(bench.ROOT / "src")


def test_every_workload_passes_jobs_explicitly():
    for argv in bench.WORKLOADS.values():
        if argv[0] == "verify":
            assert "--jobs" in argv
        assert "--quiet" in argv
    assert bench.jobs_of(bench.traced_argv(bench.WORKLOADS["sweep-both-par"])) == 1


def test_self_times_subtract_direct_children():
    spans = [
        ("run", "cli", 0.0, 10.0, -1),
        ("apery_set", "apery", 1.0, 9.0, 0),
        ("denumerant_table", "denumerant", 2.0, 7.0, 1),
    ]
    assert bench.self_times(spans) == {"cli": 2.0, "apery": 3.0, "denumerant": 5.0}


def test_two_traced_runs_give_identical_counts():
    env = bench.child_env()
    golden = bench.load_golden()["workloads"]["table-deep"]
    counts = []
    for _ in range(2):
        run, trace = bench.run_traced("table-deep", env)
        assert bench.golden_ok(golden, run)
        metrics = bench.layer_metrics(run, trace)
        layer_sum = sum(v for k, v in metrics.items() if k.endswith(".busy_s"))
        assert abs(layer_sum + metrics["trace.remainder_s"] - run.wall_s) < 1e-9
        counts.append(bench.counts_of(metrics))
    assert counts[0] == counts[1]
