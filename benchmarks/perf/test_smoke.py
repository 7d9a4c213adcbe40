"""Smoke tests of the benchmark: ``python -m pytest benchmarks/perf -q``.

One ``run.py --smoke`` run (every workload for a moment, traced) is
checked against BENCHMARK.json: the result schema, correctness, and that
every declared layer shim saw calls on the workloads it is declared for,
so renaming a traced function fails here instead of reporting zeros.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from shims import LAYER_METRICS  # noqa: E402

RUN_PY = os.path.join(HERE, "run.py")
STAMP_KEYS = {"cpu_count", "available_workers", "platform_release",
              "python", "kernel", "executor", "frontend", "numba",
              "unavailable", "git_commit"}


def _run(*args, cwd=common.REPO_ROOT):
    return subprocess.run([sys.executable, RUN_PY, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc):
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out) as f:
        return _result(proc), json.load(f)


def test_benchmark_json_matches_the_code():
    bench = compare.load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/perf"]
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in LAYER_METRICS]


def test_smoke_runs_are_correct_and_complete(smoke):
    result, record = smoke
    assert result["correct"] and result["failed"] == 0
    assert set(record["stamp"]) == STAMP_KEYS
    units = {m.name: m.unit for m in LAYER_METRICS}
    runs = record["runs"]
    assert [r["workload"] for r in runs] == list(run.WORKLOADS)
    for r in runs:
        assert r["correct"] and r["attempted"] >= 1, r["workload"]
        assert {k: v["unit"] for k, v in r["metrics"].items()} == units


def test_every_declared_layer_saw_calls(smoke):
    _, record = smoke
    by_workload = {r["workload"]: r["metrics"] for r in record["runs"]}
    silent = [f"{m.name} on {w}" for m in LAYER_METRICS
              for w in m.nonzero_on if by_workload[w][m.name]["value"] <= 0]
    assert not silent, f"layer shims saw no calls: {silent}"


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "count_cnf", "--seconds", "0.5",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())


def test_compare_flags_any_rise_in_an_exact_counter():
    def record(calls):
        runs = [{"workload": "count_cnf", "seed": seed, "seconds": 15.0,
                 "trace": 0, "metrics": {},
                 "info": {"oracle_calls": {"value": calls, "unit": "count"}}}
                for seed in (1, 2)]
        return {"stamp": {"git_commit": None}, "runs": runs}

    bench = compare.load_benchmark()
    assert compare.compare(record(100), record(100), bench) == 0
    assert compare.compare(record(100), record(99), bench) == 0
    assert compare.compare(record(100), record(101), bench) == 1


def test_traced_serve_run_counts_its_untraced_half(monkeypatch):
    """A failed request in the untraced first half of a traced service run
    is attempted, failed and makes the run incorrect."""
    reason = run.skip_reason("serve_mixed")
    if reason:
        pytest.skip(reason)
    common.import_repro()
    real_init = serve.Client.__init__

    def first_half_misses(self, launcher, workload, seed, index, deadline):
        real_init(self, launcher, workload, seed, index, deadline)
        if index < serve.CLIENTS:  # the untraced phase's clients
            self.base = "/v1/sketches/missing"

    monkeypatch.setattr(serve.Client, "__init__", first_half_misses)
    result = run.run_workload("serve_mixed", 1, 1.0, True)
    untraced = result["attempted"] - result["info"]["op_samples"]["value"]
    assert untraced > 0
    assert result["failed"] >= untraced
    assert not result["correct"]


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    exits non-zero without printing a result."""
    shutil.copy(os.path.join(common.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "perf" / "run.py"),
         "--workload", "count_cnf"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == common.EXIT_NO_PROGRAM
    assert "correct" not in proc.stdout
