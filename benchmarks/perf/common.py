"""Paths, the `repro` import guard, constants and small helpers shared by
the benchmark's entry points (run.py, workloads.py, serve.py).

The benchmark imports the program from the ``src/`` tree of the checkout it
lives in, never from an installed copy, so a run measures exactly the
commit it was checked out from.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
#: Scratch space for DIMACS files and span logs (gitignored).
WORK_DIR = os.path.join(HERE, ".work")

#: Exit code when the program under test cannot be imported.
EXIT_NO_PROGRAM = 2

#: Counting constants shared by count_cnf and count_dnf:
#: Thresh = ceil(24 / 0.8^2) = 38, t = ceil(5 ln 5) = 9 repetitions.
COUNT_EPS = 0.8
COUNT_DELTA = 0.2
COUNT_THRESH_CONSTANT = 24.0
COUNT_REPETITIONS_CONSTANT = 5.0

#: F0 sketches run at the CLI / service defaults (eps 0.8, delta 0.2,
#: constants 96 and 35: Thresh 150, 57 rows) over a 24-bit universe.
F0_EPS = 0.8
F0_DELTA = 0.2
UNIVERSE_BITS = 24


def import_repro():
    """Import `repro` from this checkout's ``src/`` or exit with code 2.

    A copy installed elsewhere would silently benchmark the wrong code, so
    the imported package must live under :data:`SRC`.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.stderr.write(f"perf: cannot import repro from {SRC}: {exc}\n")
        raise SystemExit(EXIT_NO_PROGRAM)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perf: repro resolved to {repro.__file__}, "
                         f"not to this checkout's {SRC}\n")
        raise SystemExit(EXIT_NO_PROGRAM)
    return repro


def emit(obj) -> None:
    """One JSON message on stdout (the child -> parent protocol)."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM).

    Unlike ``getrusage``'s ``ru_maxrss``, VmHWM starts afresh at exec, so
    a child does not inherit its parent's peak.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values):
    """The highest of p99/p95/p90/p50 with at least ten samples beyond it,
    as ``(label, value)``, or ``None`` when there are too few samples."""
    n = len(values)
    for q, label in ((0.99, "p99"), (0.95, "p95"), (0.90, "p90"),
                     (0.50, "p50")):
        if n - math.ceil(q * n) >= 10:
            return label, percentile(values, q)
    return None


def in_band(estimate: float, exact: float, eps: float) -> bool:
    """The (1+eps) acceptance band of the paper's guarantees."""
    return exact / (1 + eps) <= estimate <= exact * (1 + eps)
