"""E29 -- Compute-kernel throughput: python, native and numba on the hot loops.

The kernel registry (:mod:`repro.kernels`) makes the CDCL search and the
batched GF(2) hashing loops pluggable.  This benchmark runs the same
three workloads under every *available* kernel, selected the one way a
kernel is chosen -- process-wide, with :func:`set_default_kernel`:

* **propagation** -- repeated assumption solves against one incremental
  solver over a satisfiable random 3-CNF near the threshold: each solve
  runs real search (propagation, conflicts, learning, restarts, DB
  reductions), all of it inside the kernel's one ``search`` call, so
  this isolates the kernel itself.
* **approxmc** -- E25's counting workload end-to-end (random 3-CNF
  n=26): the realistic mix of kernel loop and
  python-side search machinery.
* **ingestion** -- E24's batch F0 ingestion (MinimumF0 multi-word
  affine hashing + EstimationF0 GF(2^n) Horner sweeps): the hashing
  side of the registry.

Results are asserted **bit-identical across kernels** (estimates,
sketches, search counters -- the registry's parity contract; the
``python`` kernel is the reference), and per-workload speedups land in
``BENCH_E29.json``, one row per available kernel: ``native`` (the C
search, wherever a C compiler is on ``PATH``) is recorded
next to ``numba`` so the two compiled loops can be compared.  The >= 3x
gate on the propagation workload is enforced only when numba is
importable; on a bare container the run still verifies parity and
records an explicit skip marker, mirroring E25's CPU-count gate.
"""

import random
import time

from benchmarks.harness import emit, emit_json, format_table
from repro.core.approxmc import approx_mc
from repro.formulas.generators import random_k_cnf
from repro.kernels import kernel_info, kernel_names, set_default_kernel
from repro.sat.solver import CdclSolver
from repro.streaming.base import SketchParams, compute_f0
from repro.streaming.estimation import EstimationF0
from repro.streaming.minimum import MinimumF0
from repro.streaming.streams import iter_shuffled_stream_with_f0

SPEEDUP_TARGET = 3.0  # numba over python, on the propagation workload.

# Search microbench: one incremental solver, many assumption solves.  The
# formula (seed 17, clause/variable ratio 4.0) is satisfiable, and four
# random assumption literals leave about half the solves satisfiable:
# the rounds make about 8000 conflicts and 30 restarts in all.
PROP_SEED = 17
PROP_VARS = 120
PROP_CLAUSES = 480
PROP_ROUNDS = 120
PROP_ASSUMPTIONS = 4

# E25's counting workload (tight eps/delta: thresh=307, 13 repetitions).
COUNT_PARAMS = SketchParams(eps=0.28, delta=0.08,
                            thresh_constant=24.0, repetitions_constant=5.0)

# E24's ingestion workload.
INGEST_PARAMS = SketchParams(eps=0.6, delta=0.25,
                             thresh_constant=24.0, repetitions_constant=4.0)
UNIVERSE_BITS = 16
STREAM_LENGTH = 200_000
STREAM_F0 = 30_000
CHUNK_SIZE = 4096

#: Available kernels, the ``python`` reference first.
AVAILABLE = sorted((n for n in kernel_names() if kernel_info(n).available),
                   key=lambda n: n != "python")


def _bench_propagation():
    formula = random_k_cnf(random.Random(PROP_SEED), PROP_VARS, PROP_CLAUSES,
                           k=3)
    solver = CdclSolver.from_cnf(formula)
    # Warm-up: pays numba's JIT or native's first build.
    assert solver.solve(), "the search workload's formula must be satisfiable"
    before = solver.stats
    t0 = time.perf_counter()
    verdicts = []
    for seed in range(PROP_ROUNDS):
        r = random.Random(seed)
        assumptions = [v if r.getrandbits(1) else -v
                       for v in r.sample(range(1, PROP_VARS + 1),
                                         PROP_ASSUMPTIONS)]
        verdicts.append(solver.solve(assumptions))
    elapsed = time.perf_counter() - t0
    stats = solver.stats
    assert stats.conflicts > before.conflicts, "the rounds must search"
    assert stats.restarts > before.restarts, "the rounds must restart"
    # The fingerprint pins verdicts AND the search counters: a kernel
    # that raced through a different search tree cannot sneak by on
    # wall-clock alone.
    return elapsed, (tuple(verdicts), stats.propagations, stats.decisions,
                     stats.conflicts)


def _bench_approxmc():
    formula = random_k_cnf(random.Random(5), 26, 100, 3)
    t0 = time.perf_counter()
    result = approx_mc(formula, COUNT_PARAMS, random.Random(11))
    elapsed = time.perf_counter() - t0
    return elapsed, (result.estimate, tuple(result.iteration_sketches),
                     result.oracle_calls)


def _bench_ingestion():
    chunks = list(iter_shuffled_stream_with_f0(
        random.Random(99), UNIVERSE_BITS, STREAM_F0, STREAM_LENGTH,
        chunk_size=CHUNK_SIZE))
    items = [x for chunk in chunks for x in chunk]
    estimates = []
    t0 = time.perf_counter()
    for estimator in (
            MinimumF0(UNIVERSE_BITS, INGEST_PARAMS, random.Random(7)),
            EstimationF0(UNIVERSE_BITS, INGEST_PARAMS, random.Random(7),
                         independence=4)):
        estimates.append(compute_f0(iter(items), estimator,
                                    chunk_size=CHUNK_SIZE))
    elapsed = time.perf_counter() - t0
    return elapsed, tuple(estimates)


WORKLOADS = (
    ("propagation", _bench_propagation),
    ("approxmc", _bench_approxmc),
    ("ingestion", _bench_ingestion),
)


def test_e29_kernel_throughput(capsys):
    times = {}       # (workload, kernel) -> seconds
    fingerprints = {}  # workload -> reference result, from python.
    for workload, bench in WORKLOADS:
        for kernel in AVAILABLE:
            set_default_kernel(kernel)
            try:
                elapsed, fingerprint = bench()
            finally:
                set_default_kernel(None)
            times[(workload, kernel)] = elapsed
            reference = fingerprints.setdefault(workload, fingerprint)
            assert fingerprint == reference, (
                f"{workload} under kernel={kernel} diverged from "
                f"{AVAILABLE[0]}: the kernels are not bit-identical")

    def speedup(workload, kernel):
        return times[(workload, "python")] / times[(workload, kernel)]

    rows = [(workload, kernel, f"{times[(workload, kernel)]:.3f}",
             f"{speedup(workload, kernel):.2f}x")
            for workload, _ in WORKLOADS for kernel in AVAILABLE]
    table = format_table(
        "E29  Kernel throughput (identical results asserted per workload)",
        ["workload", "kernel", "seconds", "speedup vs python"], rows)

    numba_available = "numba" in AVAILABLE
    gate = ("enforced" if numba_available
            else "skipped: numba not installed")
    if not numba_available:
        # Explicit skip marker: a perf dashboard must never read a
        # python-only run as a silently passed speedup gate.
        table += f"\n\nE29 gate {gate}"
        print(f"E29 gate {gate}")
    emit(capsys, "e29_kernels", table)

    emit_json("E29", {
        "speedup_target_propagation": SPEEDUP_TARGET,
        "gate_enforced": numba_available,
        "gate": gate,
        "kernels": AVAILABLE,
        "workloads": {
            workload: {
                "seconds_by_kernel": {k: times[(workload, k)]
                                      for k in AVAILABLE},
                "speedup_by_kernel": {k: speedup(workload, k)
                                      for k in AVAILABLE},
            }
            for workload, _ in WORKLOADS
        },
    })

    if numba_available:
        achieved = speedup("propagation", "numba")
        assert achieved >= SPEEDUP_TARGET, (
            f"numba propagation speedup {achieved:.2f}x < "
            f"{SPEEDUP_TARGET}x over python")
