"""The in-process workloads (count_cnf, count_dnf, f0_stream).

Run as a script, this is the child process of one run::

    python3 benchmarks/perf/workloads.py --workload count_cnf --seed 1 \
        --seconds 15 --trace 0

It imports `repro`, builds the workload and does one warm-up operation,
then prints ``{"ready_t": <CLOCK_MONOTONIC>}`` -- the parent measures set-up
time from spawn to that instant.  With ``--seconds 0`` it stops there.
Otherwise it runs operations for ``--seconds`` and prints one result
message: per-operation latencies, the outputs the parent checks, peak RSS
and, with ``--trace 1``, the span totals.

Under ``--trace 1`` every operation runs twice on the same input, first
untraced and then with the shims installed, so the tracing overhead is
measured on identical work.

The inputs of operation ``i`` are a pure function of ``(seed, i)``.  The
parent regenerates them to check outputs against exact answers after the
child has exited, so neither the exact counters' time nor their memory
lands in any measured window.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from shims import OP_SPAN, WORKLOAD_SHIMS, Tracer  # noqa: E402

#: count_cnf inputs: random 3-CNF over 16 variables, grown clause by clause
#: until at most this many models remain (half the formulas keep 1765-1962).
#: Bounding the model count bounds ApproxMC's level search, so per-count
#: time reflects the solver rather than how many models a seed left.
CNF_VARS = 16
CNF_MAX_MODELS = 2048

#: count_dnf inputs: random_dnf(rng, 96 vars, 18 terms, width 16).
DNF_VARS, DNF_TERMS, DNF_WIDTH = 96, 18, 16

#: f0_stream inputs: Zipf-like streams (exponent 1.1) of 300k items over
#: 2^17 support elements, fed in chunks of the default ingestion size.
F0_SUPPORT = 1 << 17
F0_STREAM_LENGTH = 300_000
F0_EXPONENT = 1.1
F0_CHUNK = 4096
F0_PASS_CHUNKS = -(-F0_STREAM_LENGTH // F0_CHUNK)


def count_params():
    from repro import SketchParams
    return SketchParams(eps=common.COUNT_EPS, delta=common.COUNT_DELTA,
                        thresh_constant=common.COUNT_THRESH_CONSTANT,
                        repetitions_constant=common.COUNT_REPETITIONS_CONSTANT)


def cnf_instance(seed: int, i):
    """Operation ``i``'s formula and hash seed for count_cnf."""
    import numpy as np
    from repro import CnfFormula, random_k_cnf
    rng = random.Random(f"{seed}/count_cnf/{i}")
    xs = np.arange(1 << CNF_VARS, dtype=np.uint32)
    sat = np.ones(xs.size, dtype=bool)
    clauses = []
    while np.count_nonzero(sat) > CNF_MAX_MODELS:
        clause = random_k_cnf(rng, CNF_VARS, 1, k=3).clauses[0]
        clause_sat = np.zeros(xs.size, dtype=bool)
        for lit in clause:
            bit = (xs >> np.uint32(abs(lit) - 1)) & np.uint32(1)
            clause_sat |= bit == np.uint32(lit > 0)
        sat &= clause_sat
        clauses.append(clause)
    return CnfFormula(CNF_VARS, clauses), rng.getrandbits(64)


def dnf_instance(seed: int, i, terms: int = DNF_TERMS):
    """Operation ``i``'s formula and hash seed for count_dnf."""
    from repro import random_dnf
    rng = random.Random(f"{seed}/count_dnf/{i}")
    return random_dnf(rng, DNF_VARS, terms, DNF_WIDTH), rng.getrandbits(64)


def f0_stream(seed: int, pass_no: int):
    """Pass ``pass_no``'s chunk iterator and sketch hash seed."""
    from repro.streaming import iter_zipf_like_stream
    key = f"{seed}/f0_stream/{pass_no}"
    chunks = iter_zipf_like_stream(random.Random(key), common.UNIVERSE_BITS,
                                   F0_SUPPORT, F0_STREAM_LENGTH,
                                   exponent=F0_EXPONENT, chunk_size=F0_CHUNK)
    return chunks, random.Random(key + "/hash").getrandbits(64)


class Workload:
    """What :func:`measure` drives: ``prepare(i)`` makes operation ``i``'s
    input outside the timed window, ``op(input, lane)`` is the timed
    operation (lane 1 is the traced twin), and ``outputs`` collects what
    the parent checks."""

    def record(self, i, out) -> None:
        pass

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass


class CountWorkload(Workload):
    """One operation = ``repro count`` on a fresh DIMACS file: read,
    parse, count.  Outputs are ``[i, estimate, oracle_calls]``."""

    def __init__(self, name: str, seed: int, lanes: int) -> None:
        from repro import (approx_mc, approx_model_count_min,
                           parse_dimacs_cnf, parse_dimacs_dnf,
                           write_dimacs_cnf, write_dimacs_dnf)
        self.seed = seed
        self.params = count_params()
        if name == "count_cnf":
            self.instance, self.write = cnf_instance, write_dimacs_cnf
            self.parse, self.count = parse_dimacs_cnf, approx_mc
        else:
            self.instance, self.write = dnf_instance, write_dimacs_dnf
            self.parse, self.count = parse_dimacs_dnf, approx_model_count_min
        os.makedirs(common.WORK_DIR, exist_ok=True)
        self.path = os.path.join(common.WORK_DIR,
                                 f"{name}-{os.getpid()}.dimacs")
        self.outputs = []

    def prepare(self, i):
        return self._write(*self.instance(self.seed, i))

    def _write(self, formula, hash_seed: int) -> int:
        with open(self.path, "w") as out:
            out.write(self.write(formula))
        return hash_seed

    def op(self, hash_seed: int, lane: int):
        with open(self.path) as f:
            formula = self.parse(f.read())
        result = self.count(formula, self.params, random.Random(hash_seed))
        return result.estimate, result.oracle_calls

    def record(self, i, out) -> None:
        self.outputs.append([i, out[0], out[1]])

    def warm_up(self) -> None:
        """One count of a small fixed formula, whatever the seed, so set-up
        time does not vary with the inputs."""
        if self.instance is cnf_instance:
            warm = cnf_instance("warm", 0)
        else:
            warm = dnf_instance("warm", 0, terms=2)
        self.op(self._write(*warm), 0)

    def close(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


class F0Workload(Workload):
    """One operation = ``compute_f0`` of one 4096-item chunk into a
    MinimumF0 (ingest, then read the estimate).  Each 300k-item stream
    pass gets a fresh sketch.  Outputs are checkpoints
    ``[pass_no, chunks_ingested, estimate, sketch_bytes]`` at every pass
    end and at the end of the run."""

    def __init__(self, name: str, seed: int, lanes: int) -> None:
        from repro import MinimumF0, SketchParams, compute_f0
        self.seed = seed
        self.lanes = lanes
        self.compute_f0 = compute_f0
        self.sketch_cls = MinimumF0
        self.params = SketchParams(eps=common.F0_EPS, delta=common.F0_DELTA)
        self.outputs = []
        self.pass_no = -1
        self._new_pass()

    def _new_pass(self) -> None:
        self.pass_no += 1
        self.chunks, hash_seed = f0_stream(self.seed, self.pass_no)
        self.sketches = [self._sketch(hash_seed) for _ in range(self.lanes)]
        self.ingested = 0

    def _sketch(self, hash_seed: int):
        return self.sketch_cls(common.UNIVERSE_BITS, self.params,
                               random.Random(hash_seed))

    def _checkpoint(self) -> None:
        sketch = self.sketches[0]
        estimates = {s.estimate() for s in self.sketches}
        if len(estimates) != 1:
            raise RuntimeError("traced and untraced sketches diverged")
        self.outputs.append([self.pass_no, self.ingested, sketch.estimate(),
                             len(sketch.to_bytes())])

    def prepare(self, i):
        chunk = next(self.chunks, None)
        if chunk is None:
            self._checkpoint()
            self._new_pass()
            chunk = next(self.chunks)
        self.ingested += 1
        return chunk

    def op(self, chunk, lane: int):
        return self.compute_f0(chunk, self.sketches[lane])

    def warm_up(self) -> None:
        chunks, hash_seed = f0_stream("warm", 0)
        self.compute_f0(next(chunks), self._sketch(hash_seed))

    def finish(self) -> None:
        self._checkpoint()


WORKLOADS = {
    "count_cnf": CountWorkload,
    "count_dnf": CountWorkload,
    "f0_stream": F0Workload,
}


def count_failures(name: str, seed: int, outputs) -> int:
    """How many of a child's outputs miss the (1+eps) band around the
    exact answer (``exact_model_count`` / ``ExactF0`` on regenerated
    inputs)."""
    from itertools import islice

    from repro import ExactF0, exact_model_count
    failed = 0
    if name == "f0_stream":
        for pass_no, chunks_done, estimate, _bytes in outputs:
            exact = ExactF0()
            for chunk in islice(f0_stream(seed, pass_no)[0], chunks_done):
                exact.process_batch(chunk)
            failed += not common.in_band(estimate, exact.estimate(),
                                         common.F0_EPS)
        return failed
    instance = cnf_instance if name == "count_cnf" else dnf_instance
    for i, estimate, _calls in outputs:
        exact = exact_model_count(instance(seed, i)[0])
        failed += not common.in_band(estimate, exact, common.COUNT_EPS)
    return failed


def measure(name: str, workload, seconds: float, trace: bool) -> dict:
    """Run operations until ``seconds`` have passed (at least one)."""
    tracer = Tracer() if trace else None
    latencies = []
    traced_s = 0.0
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        inputs = workload.prepare(i)
        start = perf_counter()
        out = workload.op(inputs, 0)
        latencies.append(perf_counter() - start)
        workload.record(i, out)
        if tracer is not None:
            tracer.op_id = i
            tracer.install(WORKLOAD_SHIMS[name])
            try:
                start = perf_counter()
                traced_out = tracer.wrap(OP_SPAN, workload.op)(inputs, 1)
                traced_s += perf_counter() - start
            finally:
                tracer.uninstall()
            if traced_out != out:
                raise RuntimeError(f"tracing changed op {i}'s output")
        i += 1
        if time.monotonic() >= deadline:
            break
    workload.finish()
    result = {
        "latencies": latencies,
        "outputs": workload.outputs,
        "rss_mb": common.peak_rss_mb(),
    }
    if tracer is not None:
        span_file = os.path.join(common.WORK_DIR,
                                 f"spans-{name}-{os.getpid()}.jsonl")
        os.makedirs(common.WORK_DIR, exist_ok=True)
        tracer.write_spans(span_file)
        overhead = 100 * (traced_s / sum(latencies) - 1)
        result["trace"] = {"totals": tracer.totals(), "ops": i,
                           "traced_s": traced_s,
                           "extra": {"trace_overhead_pct": overhead},
                           "span_file": os.path.relpath(span_file,
                                                        common.REPO_ROOT)}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.import_repro()
    workload = WORKLOADS[args.workload](args.workload, args.seed,
                                        lanes=2 if args.trace else 1)
    try:
        workload.warm_up()
        common.emit({"ready_t": time.monotonic()})
        if args.seconds > 0:
            common.emit(measure(args.workload, workload, args.seconds,
                                bool(args.trace)))
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
