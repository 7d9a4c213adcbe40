"""E31 -- Free-threaded repetitions: thread pools over nogil kernels.

E29 showed the numba kernels win on single-threaded throughput; this
benchmark shows what ``nogil=True`` buys on top: once the hot loops
release the GIL, a **thread pool** parallelises repetitions without any
of the process pool's taxes (fork, pickling the strategy, shipping
sketches back).  The workload is propagation-dominant repetitions --
each task runs many assumption solves against its own solver over the
same large random 3-CNF (E29's 120 vars / 500 clauses), so nearly all
of its time sits inside the watched-literal loop, exactly where nogil
matters.

* **Sweep** -- every available kernel, selected process-wide with
  :func:`set_default_kernel`, under serial / thread(4) / process(4)
  executors.  Pool construction is inside the timed region: the thread
  pool's cheap start-up is part of the story.
* **Correctness** -- per-task verdicts and propagation counts must be
  bit-identical across all three executors per kernel, and a real
  counter run (ApproxMC on a small formula) must produce identical
  estimates, per-repetition sketches and oracle-call totals whichever
  executor dispatches it.
* **Executor resolution** -- per kernel, the executor name the registry
  resolves and the executor class ``get_executor(4)`` returns, so the
  JSON shows what a bare ``workers=4`` would run here.
* **Gates** (numba present *and* >= 4 CPUs; otherwise the payload says
  ``"skipped: ..."``) -- on the nogil numba kernel, thread(4) is
  >= 2x serial and >= 1.3x process(4).

Machine-readable record: ``BENCH_E31.json``.
"""

import random
import time

from benchmarks.harness import emit, emit_json, format_table
from repro.core.approxmc import approx_mc
from repro.formulas.generators import random_k_cnf
from repro.kernels import kernel_info, kernel_names, set_default_kernel
from repro.parallel import (
    available_workers,
    get_executor,
    resolve_executor_name,
)
from repro.sat.solver import CdclSolver
from repro.streaming.base import SketchParams

GATE_WORKERS = 4
THREAD_VS_SERIAL = 2.0    # thread(4) over serial, numba kernel.
THREAD_VS_PROCESS = 1.3   # thread(4) over process(4), numba kernel.

# E29's propagation-dominant formula: big enough that assumption solves
# live inside the kernel loop, small enough to build instantly.
PROP_VARS = 120
PROP_CLAUSES = 500
ASSUMPTIONS = 12

# ApproxMC parity workload (small formula, a handful of repetitions).
COUNT_PARAMS = SketchParams(eps=0.8, delta=0.2,
                            thresh_constant=12.0, repetitions_constant=4.0)

AVAILABLE = [n for n in kernel_names() if kernel_info(n).available]
EXECUTORS = ("serial", "thread", "process")


def _gate_capable():
    return "numba" in AVAILABLE and available_workers() >= GATE_WORKERS


def _workload_size():
    """(tasks, rounds per task): sized down off-gate so a 1-CPU python
    container still verifies parity in seconds, not minutes."""
    return (16, 40) if _gate_capable() else (4, 6)


def _repetition_task(seed, shared):
    """One repetition: a private solver, many assumption solves.

    Module-level and shipped only plain data so the process executor can
    pickle it; the thread executor runs it by reference.
    """
    formula, rounds = shared
    solver = CdclSolver.from_cnf(formula)
    verdicts = []
    for round_index in range(rounds):
        r = random.Random(seed * 1_000 + round_index)
        assumptions = [v if r.getrandbits(1) else -v
                       for v in r.sample(range(1, PROP_VARS + 1),
                                         ASSUMPTIONS)]
        verdicts.append(solver.solve(assumptions))
    return tuple(verdicts), solver.stats.propagations


def _bench_repetitions(executor_name, tasks, rounds):
    formula = random_k_cnf(random.Random(17), PROP_VARS, PROP_CLAUSES, k=3)
    shared = (formula, rounds)
    _repetition_task(0, shared)  # Warm-up: JIT compiles off the clock.
    t0 = time.perf_counter()
    executor = get_executor(GATE_WORKERS, executor_name)
    try:
        outcomes = executor.map(_repetition_task, list(range(tasks)),
                                shared=shared)
    finally:
        executor.close()
    elapsed = time.perf_counter() - t0
    return elapsed, tuple(outcomes)


def _approxmc_parity(kernel):
    """The estimate-level contract: the counter's full result is
    executor-invariant."""
    formula = random_k_cnf(random.Random(5), 24, 96, 3)
    results = {}
    for name in EXECUTORS:
        executor = get_executor(GATE_WORKERS, name)
        try:
            r = approx_mc(formula, COUNT_PARAMS, random.Random(11),
                          executor=executor)
        finally:
            executor.close()
        results[name] = (r.estimate, tuple(r.raw_estimates),
                         tuple(r.iteration_sketches), r.oracle_calls)
    for name in EXECUTORS[1:]:
        assert results[name] == results["serial"], (
            f"approx_mc under kernel={kernel} executor={name} diverged "
            f"from serial")
    return results["serial"][0]


def test_e31_thread_throughput(capsys):
    tasks, rounds = _workload_size()
    times = {}  # (kernel, executor) -> seconds
    estimates = {}
    resolution = {}  # kernel -> what a bare workers=GATE_WORKERS runs
    for kernel in AVAILABLE:
        set_default_kernel(kernel)
        try:
            reference = None
            for executor_name in EXECUTORS:
                elapsed, fingerprint = _bench_repetitions(
                    executor_name, tasks, rounds)
                times[(kernel, executor_name)] = elapsed
                if reference is None:
                    reference = fingerprint
                assert fingerprint == reference, (
                    f"repetitions under kernel={kernel} "
                    f"executor={executor_name} diverged from serial")
            estimates[kernel] = _approxmc_parity(kernel)
            with get_executor(GATE_WORKERS) as executor:
                resolution[kernel] = {
                    "executor": resolve_executor_name(),
                    "class": type(executor).__name__}
        finally:
            set_default_kernel(None)

    def speedup(kernel, executor_name):
        return times[(kernel, "serial")] / times[(kernel, executor_name)]

    rows = [(kernel, name, f"{times[(kernel, name)]:.3f}",
             f"{speedup(kernel, name):.2f}x")
            for kernel in AVAILABLE for name in EXECUTORS]
    table = format_table(
        "E31  Thread throughput over nogil kernels "
        f"({tasks} tasks x {rounds} assumption rounds; "
        "identical results asserted)",
        ["kernel", "executor", "seconds", "speedup vs serial"], rows)
    table += "\n\n" + "\n".join(
        f"workers={GATE_WORKERS} on {kernel}: executor "
        f"{chosen['executor']} -> {chosen['class']}"
        for kernel, chosen in resolution.items())

    if _gate_capable():
        gate = "enforced"
    elif "numba" not in AVAILABLE:
        gate = "skipped: numba not installed"
    else:
        gate = f"skipped: <{GATE_WORKERS} CPUs"
    if gate != "enforced":
        # Explicit skip marker: a perf dashboard must never read a
        # degraded run as a silently passed threading gate.
        table += f"\n\nE31 gate {gate}"
        print(f"E31 gate {gate}")
    emit(capsys, "e31_threads", table)

    emit_json("E31", {
        "thread_vs_serial_target": THREAD_VS_SERIAL,
        "thread_vs_process_target": THREAD_VS_PROCESS,
        "gate_enforced": gate == "enforced",
        "gate": gate,
        "workers": GATE_WORKERS,
        "tasks": tasks,
        "rounds_per_task": rounds,
        "kernels": AVAILABLE,
        "seconds": {f"{kernel}/{name}": times[(kernel, name)]
                    for kernel in AVAILABLE for name in EXECUTORS},
        "speedup_vs_serial": {
            f"{kernel}/{name}": speedup(kernel, name)
            for kernel in AVAILABLE for name in EXECUTORS},
        "approxmc_estimates": estimates,
        "executor_resolution": resolution,
    })

    if gate == "enforced":
        vs_serial = speedup("numba", "thread")
        assert vs_serial >= THREAD_VS_SERIAL, (
            f"thread({GATE_WORKERS}) on numba only {vs_serial:.2f}x "
            f"serial, need >= {THREAD_VS_SERIAL}x")
        vs_process = (times[("numba", "process")]
                      / times[("numba", "thread")])
        assert vs_process >= THREAD_VS_PROCESS, (
            f"thread({GATE_WORKERS}) on numba only {vs_process:.2f}x "
            f"process({GATE_WORKERS}), need >= {THREAD_VS_PROCESS}x")
