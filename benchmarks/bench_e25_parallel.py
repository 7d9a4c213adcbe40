"""E25 -- Process-parallel scaling: scattered F0 ingestion and counter
repetitions.

Both halves of the paper's transfer are embarrassingly parallel, and the
execution layer in :mod:`repro.parallel` makes that literal:

* **Scattered ingestion** -- ``compute_f0(workers=k)`` deals a
  >= 10^6-item stream whole-chunk round-robin across ``k`` sketch
  replicas, each ingested in its own worker process via the vectorised
  batch paths, and merges them at the end.
* **Counter repetitions** -- ApproxMC's independent repetitions (one
  cell-search engine each) fanned out over the pool.

Estimates are asserted **bit-identical across every worker count** (the
determinism discipline: all hashes sampled in the parent, set-semantics
merges).  Wall-clock scaling is recorded for 1/2/4/8 workers and written
machine-readably to ``BENCH_E25.json``; the >= 2.5x-at-4-workers gate is
enforced only when the host actually exposes >= 4 CPUs -- on a 1-core
container the run still verifies correctness and records the (honest)
absence of speedup.
"""

import random
import time

from benchmarks.harness import emit, emit_json, format_table
from repro.core.approxmc import approx_mc
from repro.formulas.generators import random_k_cnf
from repro.parallel import available_workers
from repro.streaming.base import SketchParams, compute_f0
from repro.streaming.minimum import MinimumF0
from repro.streaming.streams import iter_shuffled_stream_with_f0

WORKER_SWEEP = (1, 2, 4, 8)
SPEEDUP_TARGET = 2.5  # At 4 workers, when the host has >= 4 CPUs.

STREAM_LENGTH = 1_000_000
STREAM_F0 = 150_000
UNIVERSE_BITS = 20
CHUNK_SIZE = 4096

INGEST_PARAMS = SketchParams(eps=0.6, delta=0.25,
                             thresh_constant=24.0, repetitions_constant=4.0)
# Tight eps/delta make each repetition's cell search substantial
# (thresh=307, 13 repetitions) so the fan-out has real work to spread.
COUNT_PARAMS = SketchParams(eps=0.28, delta=0.08,
                            thresh_constant=24.0, repetitions_constant=5.0)


def _stream_chunks():
    return list(iter_shuffled_stream_with_f0(
        random.Random(99), UNIVERSE_BITS, STREAM_F0, STREAM_LENGTH,
        chunk_size=CHUNK_SIZE))


def _ingest_sweep(chunks):
    rows = []
    times = {}
    reference = None
    for workers in WORKER_SWEEP:
        sketch = MinimumF0(UNIVERSE_BITS, INGEST_PARAMS, random.Random(7))
        t0 = time.perf_counter()
        estimate = compute_f0(chunks_flat(chunks), sketch,
                              chunk_size=CHUNK_SIZE, workers=workers)
        elapsed = time.perf_counter() - t0
        if reference is None:
            reference = estimate
        assert estimate == reference, (
            f"compute_f0 at workers={workers} diverged: "
            f"{estimate} != {reference}")
        times[workers] = elapsed
        rows.append((workers, elapsed, STREAM_LENGTH / elapsed,
                     times[1] / elapsed, estimate))
    return rows, times, reference


def chunks_flat(chunks):
    """Flatten pre-materialised chunks into an item stream, so stream
    generation cost is paid once, outside every timed region."""
    return (x for chunk in chunks for x in chunk)


def _approxmc_sweep():
    formula = random_k_cnf(random.Random(5), 26, 100, 3)
    rows = []
    times = {}
    reference = None
    for workers in WORKER_SWEEP:
        t0 = time.perf_counter()
        result = approx_mc(formula, COUNT_PARAMS, random.Random(11),
                           workers=workers)
        elapsed = time.perf_counter() - t0
        key = (result.estimate, tuple(result.iteration_sketches))
        if reference is None:
            reference = key
        assert key == reference, (
            f"approx_mc at workers={workers} diverged")
        times[workers] = elapsed
        rows.append((workers, elapsed, times[1] / elapsed,
                     result.estimate, result.oracle_calls))
    return rows, times, reference


def test_e25_parallel_scaling(capsys):
    cpus = available_workers()
    chunks = _stream_chunks()
    ingest_rows, ingest_times, ingest_est = _ingest_sweep(chunks)
    count_rows, count_times, count_ref = _approxmc_sweep()

    table = format_table(
        f"E25  compute_f0 ingestion scaling (MinimumF0, "
        f"{STREAM_LENGTH} items, F0={STREAM_F0}; identical estimates)",
        ["workers", "seconds", "items/s", "speedup", "estimate"],
        [(w, f"{t:.2f}", f"{r:.0f}", f"{s:.2f}x", f"{e:.0f}")
         for w, t, r, s, e in ingest_rows],
    )
    table += "\n\n" + format_table(
        "E25  ApproxMC repetition scaling (random 3-CNF n=26; "
        "identical sketches)",
        ["workers", "seconds", "speedup", "estimate", "oracle calls"],
        [(w, f"{t:.2f}", f"{s:.2f}x", f"{e:.0f}", c)
         for w, t, s, e, c in count_rows],
    )
    table += (f"\n\nhost exposes {cpus} CPU(s); the "
              f">= {SPEEDUP_TARGET}x-at-4-workers gate is "
              + ("enforced." if cpus >= 4 else
                 "recorded but not enforceable on this host."))
    emit(capsys, "e25_parallel", table)

    gate = "enforced" if cpus >= 4 else "skipped: <4 CPUs"
    if cpus < 4:
        # Explicit skip marker: a perf dashboard must never read a
        # 1-core run's speedups as a silently passed gate.
        print(f"E25 gate {gate} (host exposes {cpus} CPU(s))")

    emit_json("E25", {
        "speedup_target_at_4_workers": SPEEDUP_TARGET,
        "gate_enforced": cpus >= 4,
        "gate": gate,
        "f0_ingestion": {
            "sketch": "minimum",
            "stream_length": STREAM_LENGTH,
            "stream_f0": STREAM_F0,
            "chunk_size": CHUNK_SIZE,
            "estimate": ingest_est,
            "seconds_by_workers": {str(w): t
                                   for w, t in ingest_times.items()},
            "speedup_by_workers": {str(w): ingest_times[1] / t
                                   for w, t in ingest_times.items()},
        },
        "approxmc_repetitions": {
            "formula": "random_k_cnf(n=26, clauses=100, k=3)",
            "repetitions": COUNT_PARAMS.repetitions,
            "estimate": count_ref[0],
            "seconds_by_workers": {str(w): t
                                   for w, t in count_times.items()},
            "speedup_by_workers": {str(w): count_times[1] / t
                                   for w, t in count_times.items()},
        },
    })

    if cpus >= 4:
        ingest_speedup = ingest_times[1] / ingest_times[4]
        count_speedup = count_times[1] / count_times[4]
        assert ingest_speedup >= SPEEDUP_TARGET, (
            f"compute_f0 ingestion at 4 workers: {ingest_speedup:.2f}x < "
            f"{SPEEDUP_TARGET}x")
        assert count_speedup >= SPEEDUP_TARGET, (
            f"ApproxMC repetitions at 4 workers: {count_speedup:.2f}x < "
            f"{SPEEDUP_TARGET}x")
