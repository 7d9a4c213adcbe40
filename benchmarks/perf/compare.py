"""Compare benchmark records like for like.

    python3 benchmarks/perf/compare.py PARENT.json CHANGE.json
    python3 benchmarks/perf/compare.py RECORD.json

With two records (written by ``run.py --out``), prints per workload and
end-to-end metric each side's median and quartiles, the change's wins
over the pairs (runs matched in order) and a verdict against the metric's
bound in BENCHMARK.json:

* ``worse`` -- the change's median is worse by more than the bound;
* ``improved`` -- at least 10 pairs, the change wins at least nine tenths
  of them, and the medians differ by more than the parent's quartile
  spread;
* ``unresolved`` -- the parent's quartile spread exceeds the bound and not
  every change run beats every parent run;
* ``unchanged`` -- otherwise.

The counters in :data:`EXACT_COUNTERS` (from the runs' ``info``) are the
same on every run of a seed, so they are judged with bound 0: a change
whose median is higher at all is ``worse``.  Compare records made with
the same seeds.  Traced runs add a per-layer table of medians.  Records
whose host stamps differ (in anything but the commit) or whose run
lengths differ are refused.  With one record, prints the noise table:
each end-to-end metric's quartile spread as a share of its median,
against its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: Deterministic counters from the runs' ``info``, all lower-is-better:
#: the paper's cost measures (oracle calls on count_cnf, sketch wire bytes
#: on f0_stream) and the share of failed operations.
EXACT_COUNTERS = ("oracle_calls", "sketch_bytes", "error_rate")


def load_benchmark() -> dict:
    with open(os.path.join(common.REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_like_for_like(a: dict, b: dict) -> None:
    """Exit unless both records come from the same host configuration
    and used the same run length."""
    sa = {k: v for k, v in a["stamp"].items() if k != "git_commit"}
    sb = {k: v for k, v in b["stamp"].items() if k != "git_commit"}
    diffs = [f"{k}: {sa.get(k)!r} vs {sb.get(k)!r}"
             for k in sorted(set(sa) | set(sb)) if sa.get(k) != sb.get(k)]
    seconds = [{r["seconds"] for r in rec["runs"] if "skipped" not in r}
               for rec in (a, b)]
    if seconds[0] != seconds[1]:
        diffs.append(f"run seconds: {sorted(seconds[0])} vs "
                     f"{sorted(seconds[1])}")
    if diffs:
        raise SystemExit("records are not like for like:\n  "
                         + "\n  ".join(diffs))


def series(record: dict, workload: str, metric: str, trace: int,
           section: str = "metrics"):
    return [r[section][metric]["value"] for r in record["runs"]
            if r["workload"] == workload and r.get("trace") == trace
            and "skipped" not in r and metric in r[section]]


def workloads_in(*records):
    return list(dict.fromkeys(r["workload"] for rec in records
                              for r in rec["runs"]))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    """The quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(a, b, bound: float, better: str):
    """(verdict, wins, pairs) of change runs ``b`` against parent ``a``."""
    sign = 1 if better == "lower" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    q1, _, q3 = quartiles(a)
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse", wins, len(pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > q3 - q1):
        return "improved", wins, len(pairs)
    beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if spread(a) > bound and not beats_all:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def _fmt(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(a: dict, b: dict, bench: dict) -> int:
    """Print the verdict table; returns how many pairings are worse."""
    check_like_for_like(a, b)
    worse = 0
    print("workload metric parent-median[q1,q3] change-median[q1,q3] "
          "change% wins/pairs verdict")
    for workload in workloads_in(a, b):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va, vb = series(a, workload, name, 0), series(b, workload, name, 0)
            if not va or not vb:
                continue
            result, wins, pairs = verdict(va, vb, metric["bound"],
                                          metric["better"])
            worse += result == "worse"
            med_a, med_b = statistics.median(va), statistics.median(vb)
            change = 100 * (med_b - med_a) / med_a if med_a else 0.0
            print(f"{workload} {name} {_fmt(va)} {_fmt(vb)} "
                  f"{change:+.1f}% {wins}/{pairs} {result}")
        for name in EXACT_COUNTERS:
            va = series(a, workload, name, 0, "info")
            vb = series(b, workload, name, 0, "info")
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            result = ("worse" if med_b > med_a else
                      "improved" if med_b < med_a else "unchanged")
            worse += result == "worse"
            change = 100 * (med_b - med_a) / med_a if med_a else 0.0
            print(f"{workload} {name} {_fmt(va)} {_fmt(vb)} "
                  f"{change:+.1f}% exact {result}")
    for workload in workloads_in(a, b):
        rows = []
        for metric in bench["per_layer"]:
            name = metric["name"]
            va, vb = series(a, workload, name, 1), series(b, workload, name, 1)
            if va and vb and (any(va) or any(vb)):
                rows.append(f"  {name} {statistics.median(va):.4g} -> "
                            f"{statistics.median(vb):.4g} {metric['unit']}")
        if rows:
            print(f"{workload} per-layer medians (parent -> change):")
            print("\n".join(rows))
    return worse


def noise_table(record: dict, bench: dict) -> None:
    """Each end-to-end metric's run-to-run spread against its bound."""
    print("workload metric runs median q1 q3 spread bound status")
    for workload in workloads_in(record):
        for metric in bench["end_to_end"]:
            values = series(record, workload, metric["name"], 0)
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s, bound = spread(values), metric["bound"]
            status = ("ok" if s <= bound / 3 else
                      "within-bound" if s <= bound else "too-noisy")
            print(f"{workload} {metric['name']} {len(values)} {q2:.4g} "
                  f"{q1:.4g} {q3:.4g} {s:.3f} {bound} {status}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        raise SystemExit(__doc__)
    bench = load_benchmark()
    records = []
    for path in args:
        with open(path) as f:
            records.append(json.load(f))
    if len(records) == 1:
        noise_table(records[0], bench)
        return 0
    return 1 if compare(records[0], records[1], bench) else 0


if __name__ == "__main__":
    sys.exit(main())
