"""Per-workload kernel x executor auto-pick.

Which (compute kernel, executor backend) pair wins is workload-dependent
-- the same lesson "Model Counting in the Wild" draws for solver
configurations.  Thread pools beat process pools exactly when the hot
loops release the GIL and the per-task work is too small to amortise
fork+pickle; process pools win the opposite corner; serial wins when the
whole map is tiny.  Rather than hardcode that judgement, this module
measures it:

* :class:`WorkloadFingerprint` names the workload shape (formula size,
  repetition count, batch width), bucketed by powers of two so nearby
  shapes share a decision.
* :func:`pick` returns an :class:`AutopickDecision` -- either from a
  fast **calibration micro-benchmark** (``calibrate=True``: time each
  available kernel x executor pair on a fingerprint-shaped probe, pool
  construction included, because that is what a real ``workers=`` call
  pays) or from a **capability heuristic** (thread when the resolved
  kernel's registry entry says ``releases_gil``, else process).
* Decisions are cached per process, keyed by (fingerprint bucket,
  worker count); a calibrated decision is never overwritten by a
  heuristic one.
* :func:`auto_executor` is the ``auto`` entry's factory in
  :mod:`repro.parallel.registry`, and ``repro list --autopick``
  prints the decision (``repro.cli``).

Calibration draws no randomness from user RNGs (fixed probe seeds), so
running it cannot perturb any seeded experiment.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import InvalidParameterError
from repro.kernels.registry import (
    DEFAULT_KERNEL,
    kernel_info,
    kernel_names,
    resolve_kernel_name,
)
from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    resolve_workers,
)

#: Probe sizing: a handful of short assumption solves per task keeps one
#: full calibration (kernels x executors) well under a second on the
#: small-formula shapes the auto path exists for.
_PROBE_ROUNDS = 6
_PROBE_ASSUMPTIONS = 8


@dataclass(frozen=True)
class WorkloadFingerprint:
    """The workload shape a decision is calibrated against.

    ``batch_width`` is the streaming-side batch size (0 for pure
    counting workloads); it participates in the cache key so ingestion
    and counting shapes calibrate separately.
    """

    num_vars: int
    num_clauses: int
    repetitions: int
    batch_width: int = 0

    def bucket(self) -> Tuple[int, int, int, int]:
        """Power-of-two bucket: nearby shapes share a cached decision."""
        return (self.num_vars.bit_length(), self.num_clauses.bit_length(),
                self.repetitions.bit_length(), self.batch_width.bit_length())


#: The shape calibrated when the caller has none: the small-formula
#: regime where executor choice actually swings the outcome.
DEFAULT_FINGERPRINT = WorkloadFingerprint(
    num_vars=30, num_clauses=120, repetitions=8)


@dataclass(frozen=True)
class AutopickDecision:
    """The outcome of one auto-pick.

    ``timings`` is ``((kernel, executor, seconds), ...)`` when the
    decision was calibrated, empty for heuristic picks; ``reason`` is a
    one-line human-readable justification either way.
    """

    kernel: str
    executor: str
    workers: int
    calibrated: bool
    reason: str
    timings: Tuple[Tuple[str, str, float], ...] = ()
    fingerprint: Optional[WorkloadFingerprint] = None


_CACHE: Dict[Tuple[Tuple[int, int, int, int], int], AutopickDecision] = {}
_CACHE_LOCK = threading.Lock()


def clear_cache() -> None:
    """Drop every cached decision (tests, or after registry changes)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def _available_kernels() -> List[str]:
    return [n for n in kernel_names() if kernel_info(n).available]


def _executor_candidates() -> List[str]:
    names = ["serial", "thread"]
    try:
        import multiprocessing  # noqa: F401
        names.append("process")
    except ImportError:  # pragma: no cover - stdlib, but the contract allows it
        pass
    return names


def _heuristic(workers: int) -> AutopickDecision:
    """The zero-measurement fallback: read the ``releases_gil`` flag."""
    name = resolve_kernel_name(None)
    info = kernel_info(name)
    if not info.available:
        name = DEFAULT_KERNEL
        info = kernel_info(name)
    if info.releases_gil:
        return AutopickDecision(
            kernel=name, executor="thread", workers=workers,
            calibrated=False,
            reason=(f"kernel {name!r} releases the GIL: threads scale "
                    f"without fork+pickle overhead"))
    return AutopickDecision(
        kernel=name, executor="process", workers=workers,
        calibrated=False,
        reason=(f"kernel {name!r} holds the GIL: only processes can "
                f"overlap its hot loops"))


def _probe_task(seed: int, shared: object) -> int:
    """One calibration task: short assumption solves on a shared formula.

    Module-level and picklable, so the probe can ride every backend
    including :class:`ProcessExecutor`.  Deterministic per seed.
    """
    import random

    from repro.sat.solver import CdclSolver

    formula, kernel_name, rounds, num_vars, num_assumptions = shared
    solver = CdclSolver.from_cnf(formula, kernel=kernel_name)
    sats = 0
    for round_index in range(rounds):
        r = random.Random(seed * 1_000 + round_index)
        assumptions = [v if r.getrandbits(1) else -v
                       for v in r.sample(range(1, num_vars + 1),
                                         num_assumptions)]
        if solver.solve(assumptions):
            sats += 1
    return sats


def _make_probe_executor(name: str, workers: int) -> Executor:
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)


def _calibrate(fingerprint: WorkloadFingerprint,
               workers: int) -> AutopickDecision:
    """Time each kernel x executor pair on a fingerprint-shaped probe.

    Pool construction sits *inside* the timed region: a real
    ``workers=k`` call pays it too, and it is precisely the cost that
    makes processes lose on small formulas.
    """
    import random

    from repro.formulas.generators import random_k_cnf

    num_vars = max(4, fingerprint.num_vars)
    formula = random_k_cnf(random.Random(1234), num_vars,
                           max(num_vars, fingerprint.num_clauses), k=3)
    num_assumptions = min(_PROBE_ASSUMPTIONS, max(1, num_vars // 3))
    tasks = list(range(max(2, min(fingerprint.repetitions, 2 * workers))))

    timings: List[Tuple[str, str, float]] = []
    for kernel_name in _available_kernels():
        shared = (formula, kernel_name, _PROBE_ROUNDS, num_vars,
                  num_assumptions)
        # Warm-up outside the clock: the first call pays JIT compilation
        # (and the process pool must not be charged for it either -- the
        # on-disk numba cache makes workers' compiles cheap afterwards).
        _probe_task(0, shared)
        for executor_name in _executor_candidates():
            t0 = time.perf_counter()
            try:
                ex = _make_probe_executor(executor_name, workers)
            except (InvalidParameterError, OSError):
                continue  # Backend cannot spawn here; not a candidate.
            try:
                ex.map(_probe_task, tasks, shared=shared)
            finally:
                ex.close()
            timings.append((kernel_name, executor_name,
                            time.perf_counter() - t0))

    best_kernel, best_executor, best_time = min(timings, key=lambda t: t[2])
    return AutopickDecision(
        kernel=best_kernel, executor=best_executor, workers=workers,
        calibrated=True,
        reason=(f"calibrated: {best_kernel}+{best_executor} fastest at "
                f"{best_time * 1e3:.1f} ms over {len(timings)} probed "
                f"pairs (n={num_vars}, m={fingerprint.num_clauses}, "
                f"{len(tasks)} tasks x {_PROBE_ROUNDS} solves)"),
        timings=tuple(timings),
        fingerprint=fingerprint)


def pick(fingerprint: Optional[WorkloadFingerprint] = None,
         workers: Optional[int] = None,
         calibrate: bool = False) -> AutopickDecision:
    """The (kernel, executor) decision for a workload shape.

    Args:
        fingerprint: workload shape; :data:`DEFAULT_FINGERPRINT` when
            omitted.
        workers: worker count the decision is for (``None`` -> all
            cores, via :func:`available_workers`; 0 also means all).
        calibrate: run the micro-benchmark instead of the capability
            heuristic.  Calibrated decisions are cached and never
            displaced by heuristic ones; a heuristic cache entry is
            upgraded in place when calibration is requested later.

    Returns:
        The cached or freshly computed :class:`AutopickDecision`.
    """
    count = (available_workers() if workers is None
             else resolve_workers(workers))
    if count <= 1:
        return AutopickDecision(
            kernel=resolve_kernel_name(None), executor="serial",
            workers=count, calibrated=False,
            reason="workers <= 1: nothing to parallelise")
    shape = fingerprint or DEFAULT_FINGERPRINT
    key = (shape.bucket(), count)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is not None and (cached.calibrated or not calibrate):
        return cached
    decision = _calibrate(shape, count) if calibrate else _heuristic(count)
    if fingerprint is not None or calibrate:
        # Heuristic picks for the *default* shape are not worth caching
        # (they are pure flag reads); measured or shape-specific
        # decisions are.
        with _CACHE_LOCK:
            current = _CACHE.get(key)
            if current is None or (decision.calibrated
                                   and not current.calibrated):
                _CACHE[key] = decision
            else:
                decision = current
    return decision


def auto_executor(workers: int) -> Executor:
    """The ``auto`` registry entry's factory: instantiate the pick.

    Uses the cached calibrated decision when one exists for the default
    shape at this worker count, otherwise the capability heuristic --
    never runs calibration implicitly (an ``executor_for`` call deep in
    a counter must not grow a surprise micro-benchmark).
    """
    decision = pick(workers=workers)
    return _make_probe_executor(decision.executor, workers)
