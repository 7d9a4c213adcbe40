"""The repository benchmark: five seeded workloads, one result per run.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py                        # all workloads
    python3 benchmarks/perf/run.py --workload count_cnf --seed 7
    python3 benchmarks/perf/run.py --trace                # per-layer split
    python3 benchmarks/perf/run.py --smoke                # ~1 s each, traced
    python3 benchmarks/perf/run.py --repeat 10 --out r.json

``python -m benchmarks.perf.run`` works the same.  Each run prints one
``workload metric value unit`` line per metric and then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced runs report the end-to-end metrics of BENCHMARK.json; ``--trace``
runs report its per-layer metrics.  With several workloads or repeats the
metric values are per-workload medians, keyed ``<workload>.<metric>``
when more than one workload ran.  ``--out`` appends every run, with the
host stamp, to a JSON record that ``compare.py`` reads.  The exit code is
1 when a correctness check failed, 2 when `repro` cannot be imported
from this checkout and 3 when no workload could run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import serve  # noqa: E402
import workloads  # noqa: E402
from shims import LAYER_METRICS, layer_values  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 15.0
SMOKE_SECONDS = 0.5
#: Set-ups per untraced run; set-up time is their median.
SETUPS = 3
#: Longest a count/f0 child may run beyond its measuring time.
CHILD_GRACE_S = 120
#: ``oracle_calls`` sums the first this many counts of a count_cnf run,
#: so it is exact for a seed whatever the run's speed.
ORACLE_COUNTS = 8

#: Workload names; BENCHMARK.json and README.md say why each exists.
WORKLOADS = ("count_cnf", "count_dnf", "f0_stream", "serve_read",
             "serve_mixed")
SERVE_WORKLOADS = ("serve_read", "serve_mixed")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
}


def git_commit():
    """The checked-out commit, or None outside a git checkout."""
    # Without a .git here, git would search the directories above the
    # checkout and could report some other repository's commit.
    if not os.path.exists(os.path.join(common.REPO_ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=common.REPO_ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_stamp() -> dict:
    """What a result depends on besides the code: compare.py refuses to
    compare records whose stamps differ (except in git_commit)."""
    from repro.kernels import kernel_info, kernel_names, resolve_kernel_name
    from repro.parallel.executor import available_workers
    from repro.parallel.registry import resolve_executor_name
    from repro.service.frontends import resolve_frontend_name
    unavailable = {f"kernel:{name}": kernel_info(name).unavailable_reason
                   for name in kernel_names()
                   if not kernel_info(name).available}
    return {
        "cpu_count": os.cpu_count(),
        "available_workers": available_workers(),
        "platform_release": platform.release(),
        "python": platform.python_version(),
        "kernel": resolve_kernel_name(),
        "executor": resolve_executor_name(),
        "frontend": resolve_frontend_name(),
        "numba": kernel_info("numba").available,
        "unavailable": unavailable,
        "git_commit": git_commit(),
    }


def skip_reason(name: str):
    """Why ``name`` cannot run on this host, or None."""
    if name in SERVE_WORKLOADS:
        try:
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
        except OSError as exc:
            return f"cannot bind a loopback TCP port: {exc}"
    return None


def run_child(name: str, seed: int, seconds: float, trace: bool,
              setups: int) -> dict:
    """``setups`` child processes; the last one measures."""
    setup_times = []
    result = None
    for k in range(setups):
        measuring = k == setups - 1
        cmd = [sys.executable, workloads.__file__, "--workload", name,
               "--seed", str(seed),
               "--seconds", str(seconds if measuring else 0),
               "--trace", str(int(trace))]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                cwd=common.REPO_ROOT, text=True)
        try:
            out, _ = proc.communicate(timeout=seconds + CHILD_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"{name} child exited with "
                               f"{proc.returncode}")
        messages = [json.loads(line) for line in out.splitlines()
                    if line.startswith("{")]
        setup_times.append(messages[0]["ready_t"] - start)
        if measuring:
            result = messages[1]
    result["setup_times"] = setup_times
    return result


def _ms(seconds: float) -> float:
    return seconds * 1000


def _latency_info(prefix: str, latencies, info: dict) -> None:
    """Sample count, median (unless it is the op_ms_p50 metric) and the
    highest percentile with at least ten samples beyond it."""
    info[f"{prefix}_samples"] = (len(latencies), "count")
    if not latencies:
        return
    if prefix != "op":
        info[f"{prefix}_ms_p50"] = (_ms(statistics.median(latencies)), "ms")
    tail = common.tail_percentile(latencies)
    if tail is not None and tail[0] != "p50":
        info[f"{prefix}_ms_{tail[0]}"] = (_ms(tail[1]), "ms")


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of one workload: metrics, correctness and extra info."""
    setups = 1 if trace else SETUPS
    if name in SERVE_WORKLOADS:
        raw = serve.run_serve(name, seed, seconds, trace, setups)
        latencies = [s for _, s in raw["samples"]]
        attempted, failed = raw["attempted"], raw["failed"]
        ops_per_s = len(latencies) / raw["window_s"]
    else:
        raw = run_child(name, seed, seconds, trace, setups)
        latencies = raw["latencies"]
        attempted = len(latencies)
        failed = workloads.count_failures(name, seed, raw["outputs"])
        ops_per_s = len(latencies) / sum(latencies)
    info = {"error_rate": (failed / attempted, "ratio")}
    _latency_info("op", latencies, info)
    outputs = raw.get("outputs", [])
    if name == "count_cnf" and len(outputs) >= ORACLE_COUNTS:
        info["oracle_calls"] = (sum(out[2] for out in
                                    outputs[:ORACLE_COUNTS]), "count")
    elif name == "f0_stream":
        items = sum(min(done * workloads.F0_CHUNK,
                        workloads.F0_STREAM_LENGTH)
                    for _, done, _, _ in outputs)
        info["ingest_items_per_s"] = (items / sum(latencies), "1/s")
        if outputs[0][1] == workloads.F0_PASS_CHUNKS:
            info["sketch_bytes"] = (outputs[0][3], "bytes")
    elif name == "serve_mixed" and not trace:
        for kind in ("estimate", "ingest", "blob"):
            _latency_info(kind, [s for k, s in raw["samples"] if k == kind],
                          info)
    if trace:
        tr = raw["trace"]
        values = layer_values(tr["totals"], tr["ops"], tr["traced_s"],
                              tr["extra"])
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in LAYER_METRICS}
        info["span_file"] = (tr["span_file"], "path")
    else:
        values = {
            "setup_s": statistics.median(raw["setup_times"]),
            "peak_rss_mb": raw["rss_mb"],
            "op_ms_p50": _ms(statistics.median(latencies)),
            "ops_per_s": ops_per_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "correct": failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": metrics,
            "info": {k: {"value": v, "unit": u}
                     for k, (v, u) in info.items()}}


def print_run(run: dict) -> None:
    name = run["workload"]
    if "skipped" in run:
        print(f"{name} skipped {run['skipped']}")
        return
    for section in ("metrics", "info"):
        for metric, entry in run[section].items():
            value = entry["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{name} {metric} {shown} {entry['unit']}")
    print(f"{name} correct {run['correct']} attempted {run['attempted']} "
          f"failed {run['failed']}")


def summary_line(runs) -> dict:
    """The final result object: per-workload medians over the runs."""
    done = [r for r in runs if "skipped" not in r]
    names = list(dict.fromkeys(r["workload"] for r in done))
    metrics = {}
    for name in names:
        mine = [r for r in done if r["workload"] == name]
        for metric, entry in mine[0]["metrics"].items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {
                "value": statistics.median(r["metrics"][metric]["value"]
                                           for r in mine),
                "unit": entry["unit"]}
    return {"correct": all(r["correct"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "metrics": metrics}


def write_record(path: str, stamp: dict, runs) -> None:
    """Append ``runs`` to the record at ``path`` (same stamp only)."""
    record = {"stamp": stamp, "runs": []}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        if record["stamp"] != stamp:
            raise SystemExit(f"{path} holds runs from another host stamp "
                             f"or commit; refusing to append")
    record["runs"].extend(runs)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed; repeat r uses seed + r")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 = report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s per workload, traced")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, alternating workloads")
    parser.add_argument("--out", help="JSON record to append runs to")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    if args.smoke:
        args.seconds, args.trace = SMOKE_SECONDS, 1
    common.import_repro()
    stamp = host_stamp()
    runs = []
    for r in range(args.repeat):
        for name in args.workload or WORKLOADS:
            seed = args.seed + r
            reason = skip_reason(name)
            if reason is None:
                run = run_workload(name, seed, args.seconds,
                                   bool(args.trace))
            else:
                run = {"workload": name, "seed": seed, "skipped": reason}
            print_run(run)
            sys.stdout.flush()
            runs.append(run)
    if args.out:
        write_record(args.out, stamp, runs)
    if all("skipped" in r for r in runs):
        sys.stderr.write("perf: no workload could run\n")
        return 3
    result = summary_line(runs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
