"""E26 -- Unified-engine overhead + pluggable oracle backends.

Two questions about the repetition-engine refactor:

1. **Engine overhead.**  The four counters now run as strategy classes
   dispatched by :class:`repro.core.engine.RepetitionEngine` instead of
   hand-rolled loops.  On the E23/E25 level-search workload (random
   3-CNF ApproxMC with pre-sampled hashes), the engine path must stay
   within +-5% wall-clock of the pre-engine loop -- reproduced below as
   ``_pre_engine_loop`` (shared oracle, inline level search, started
   from repetition 0's level, as the engine does) -- with
   bit-identical sketches.
2. **Backend comparison.**  The same level search run over every
   registered oracle backend (``cdcl``, ``bruteforce``, ``pysat`` when
   installed) on a deliberately small instance, with identical sketches
   asserted -- the numbers quantify why ``cdcl`` is the default and what
   swapping the flag costs/buys.

Both sweeps land machine-readably in ``BENCH_E26.json``.
"""

import random
import statistics
import time

from benchmarks.harness import BENCH_PARAMS, emit, emit_json, format_table
from repro.core.approxmc import approx_mc, find_level
from repro.core.cell_search import cell_search_for
from repro.formulas.generators import fixed_count_cnf, random_k_cnf
from repro.hashing.toeplitz import ToeplitzHashFamily
from repro.sat.backends import backend_names
from repro.sat.oracle import NpOracle

#: Wall-clock tolerance for the engine-vs-PR3 comparison (the acceptance
#: gate).  Median of TIMING_ROUNDS interleaved rounds per arm.
OVERHEAD_TOLERANCE = 0.05
TIMING_ROUNDS = 5


def _pre_engine_loop(formula, hashes, thresh):
    """The pre-engine serial repetition loop, kept runnable for this
    comparison: one shared oracle, inline cell search + level search,
    hand-packed sketches (what ``approx_mc`` did before the unified
    engine), with the engine's start hint: repetition 0 searches from
    level 0, the rest from one level above its crossing."""
    oracle = NpOracle(formula)
    results = []
    for h in hashes:
        cells = cell_search_for(formula, h, thresh, oracle=oracle)
        start = max(results[0][1] - 1, 0) if results else 0
        count, level = find_level(cells, start)
        results.append((count, level))
    raw = [count * float(1 << level) for count, level in results]
    return results, raw, oracle.calls


def _engine_run(formula, hashes, params):
    result = approx_mc(formula, params, random.Random(0), hashes=hashes)
    return (list(result.iteration_sketches), result.raw_estimates,
            result.oracle_calls)


def _level_search_workload():
    """The E23 instances: random 3-CNF level search at bench scale."""
    return [
        ("rand3cnf(20,60)", random_k_cnf(random.Random(5), 20, 60, k=3)),
        ("rand3cnf(24,84)", random_k_cnf(random.Random(11), 24, 84, k=3)),
        ("fixed(16,14)", fixed_count_cnf(16, 14)),
    ]


def _hashes_for(formula):
    family = ToeplitzHashFamily(formula.num_vars, formula.num_vars)
    return [family.sample(random.Random(100 + i))
            for i in range(BENCH_PARAMS.repetitions)]


def run_overhead_comparison():
    rows = []
    records = []
    for name, formula in _level_search_workload():
        hashes = _hashes_for(formula)
        loop_times, engine_times = [], []
        # Interleave the arms so drift hits both equally; keep the
        # median round per arm.
        for _round in range(TIMING_ROUNDS):
            start = time.perf_counter()
            loop_sketches, loop_raw, loop_calls = _pre_engine_loop(
                formula, hashes, BENCH_PARAMS.thresh)
            loop_times.append(time.perf_counter() - start)

            start = time.perf_counter()
            eng_sketches, eng_raw, eng_calls = _engine_run(
                formula, hashes, BENCH_PARAMS)
            engine_times.append(time.perf_counter() - start)

        assert eng_sketches == loop_sketches, f"sketches diverged on {name}"
        assert eng_raw == loop_raw and eng_calls == loop_calls, (
            f"estimates/calls diverged on {name}")
        loop_t = statistics.median(loop_times)
        eng_t = statistics.median(engine_times)
        ratio = eng_t / loop_t
        rows.append((name, loop_t, eng_t, ratio))
        records.append({"instance": name,
                        "loop_seconds": loop_t,
                        "engine_seconds": eng_t,
                        "engine_over_loop": ratio,
                        "oracle_calls": eng_calls})
    return rows, records


def run_backend_comparison():
    """Level search per registered backend on a bruteforce-sized instance
    (8 variables: the exhaustive backend scans 2^8 per probe)."""
    formula = random_k_cnf(random.Random(17), 8, 20, k=3)
    hashes = _hashes_for(formula)
    rows = []
    records = []
    reference = None
    for backend in backend_names():
        start = time.perf_counter()
        result = approx_mc(formula, BENCH_PARAMS, random.Random(0),
                           hashes=hashes, backend=backend)
        elapsed = time.perf_counter() - start
        sketches = list(result.iteration_sketches)
        if reference is None:
            reference = (sketches, result.estimate)
        else:
            assert (sketches, result.estimate) == reference, (
                f"backend {backend} diverged")
        rows.append((backend, elapsed, result.oracle_calls,
                     result.estimate))
        records.append({"backend": backend, "seconds": elapsed,
                        "oracle_calls": result.oracle_calls})
    return rows, records


def test_e26_engine_and_backends(benchmark, capsys):
    overhead_rows, overhead_records = run_overhead_comparison()
    backend_rows, backend_records = run_backend_comparison()

    table = format_table(
        "E26  Repetition-engine overhead vs the pre-engine loop "
        "(identical sketches; ratio gate 1 +- "
        f"{OVERHEAD_TOLERANCE:.0%})",
        ["instance", "loop s", "engine s", "engine/loop"],
        overhead_rows)
    table += "\n\n" + format_table(
        "E26  Level search by oracle backend (identical sketches)",
        ["backend", "seconds", "oracle calls", "estimate"],
        backend_rows)
    emit(capsys, "e26_backends", table)

    worst = max(r[3] for r in overhead_rows)
    mean = statistics.mean(r[3] for r in overhead_rows)
    emit_json("E26", {
        "overhead": overhead_records,
        "overhead_ratio_mean": mean,
        "overhead_ratio_worst": worst,
        "tolerance": OVERHEAD_TOLERANCE,
        "backends": backend_records,
    })

    # Acceptance: the indirection costs nothing measurable -- the mean
    # ratio inside +-5%, no single configuration beyond +10% (guards the
    # gate against one noisy round on shared CI hosts).
    assert mean <= 1.0 + OVERHEAD_TOLERANCE, (
        f"engine overhead {mean:.3f}x exceeds +{OVERHEAD_TOLERANCE:.0%}")
    assert worst <= 1.0 + 2 * OVERHEAD_TOLERANCE, (
        f"worst-case engine overhead {worst:.3f}x")

    formula = fixed_count_cnf(16, 14)
    hashes = _hashes_for(formula)
    benchmark(lambda: approx_mc(formula, BENCH_PARAMS, random.Random(7),
                                hashes=hashes))
