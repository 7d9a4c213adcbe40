"""The parallel execution layer.

Both halves of the paper's transfer are embarrassingly parallel: the
streaming side across shard replicas of a mergeable sketch, the counting
side across independent repetitions (each with its own hash function and
cell-search engine).  This module provides the one abstraction they
share -- an :class:`Executor` that maps a task function over a list of
task payloads -- with three backends:

* :class:`SerialExecutor` runs tasks inline in the calling process.  It
  is the ``workers=1`` path and costs nothing beyond the loop itself: no
  pool spawn, no pickling, no import-time ``multiprocessing`` machinery.
* :class:`ThreadExecutor` fans tasks out over a persistent thread pool.
  Nothing is pickled -- tasks, results and the ``shared`` payload cross
  by reference -- so its per-task overhead is near zero; real scaling
  additionally needs the hot loops to release the GIL (the ``numba``
  kernel's ``nogil`` loops do; see the ``releases_gil`` capability flag
  in :mod:`repro.kernels`).
* :class:`ProcessExecutor` fans tasks out over a ``multiprocessing``
  pool.  Task functions must be module-level (picklable by reference)
  and payloads picklable by value.

Which backend a bare ``workers=k`` knob resolves to is a registry
decision (:func:`repro.parallel.registry.get_executor`: explicit name ->
``set_default_executor`` override -> ``REPRO_EXECUTOR`` -> ``auto``).

Determinism discipline
----------------------

Parallel runs must be **bit-identical** to serial runs for a fixed seed.
The rules that guarantee it:

* All randomness is drawn in the *parent*, before scatter, in the same
  order the serial loop would draw it (e.g. counters pre-sample every
  repetition's hash functions).  Workers never touch a shared RNG.
* When a task genuinely needs its own generator, derive child seeds in
  the parent with :func:`split_seeds` -- the draws happen before
  scatter, so the seeds do not depend on worker count or scheduling.
* Results are gathered **in task order** (``Executor.map`` preserves
  order), so order-sensitive reductions (medians over repetitions,
  shard-wise merges) see the same sequence as the serial loop.

``shared`` payloads
-------------------

``map(fn, tasks, shared=obj)`` ships ``obj`` once per worker chunk
rather than once per task -- the right place for a formula, an
enumerated solution set, or anything else every task reads but none
mutates.  Workers receive it as ``fn(task, shared)``; under a process
pool mutations made in a worker are invisible to the parent (each
process has its own copy), while in-process executors (serial, thread)
hand the *same* object to every task -- task functions must treat
``shared`` as read-only, and any lazily built scratch state it holds
must be safe to build concurrently (see the ``LinearHash`` packed-layout
cache for the pattern).
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.common.errors import InvalidParameterError
from repro.common.rng import RandomSource

T = TypeVar("T")
R = TypeVar("R")

try:
    import multiprocessing as _mp
except ImportError:  # pragma: no cover - stdlib, but the contract allows it
    _mp = None


def available_workers() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def split_seeds(rng: RandomSource, count: int) -> List[int]:
    """Derive ``count`` independent 128-bit child seeds from ``rng``.

    The draws happen in the caller (parent) in index order, so the seed
    assigned to task ``i`` is a function of the master seed only -- never
    of worker count, scheduling, or completion order.  Same discipline as
    :func:`repro.common.rng.spawn_rngs`, but yielding transportable ints
    instead of generator objects.
    """
    if count < 0:
        raise InvalidParameterError("count must be non-negative")
    return [rng.getrandbits(128) for _ in range(count)]


class Executor:
    """Order-preserving ``map`` over picklable tasks; see module docstring."""

    #: Number of workers results are computed on (1 for serial).
    workers: int = 1

    #: Whether tasks run in the calling process (serial, thread): payloads
    #: cross by reference, nothing is pickled, and in-place mutations are
    #: visible to the caller.  Scatter plumbing uses this to skip
    #: wire-encoding work that only pays off across a process boundary.
    in_process: bool = False

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    def map(self, fn: Callable[[T, object], R], tasks: Sequence[T],
            shared: object = None) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources (no-op for the serial backend)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every task inline: the zero-overhead ``workers=1`` backend."""

    workers = 1
    in_process = True

    def map(self, fn: Callable[[T, object], R], tasks: Sequence[T],
            shared: object = None) -> List[R]:
        return [fn(task, shared) for task in tasks]


class ThreadExecutor(Executor):
    """Fan tasks out over a persistent thread pool (zero pickling).

    The complement of :class:`ProcessExecutor` for the regime where its
    fork+pickle overhead swamps the work: tasks, results and ``shared``
    cross by reference, so a map of tiny repetitions costs little more
    than the serial loop.  True parallel *speed-up* additionally needs
    the per-task hot loops to drop the GIL -- the ``numba`` kernel's
    ``nogil``-compiled loops do, the pure-python paths do not (they
    still run correctly, just interleaved).  ``fn`` and ``shared`` are
    entered concurrently from ``workers`` threads: ``shared`` must be
    treated as read-only and any lazy caches it builds must be
    thread-safe.

    Results are gathered in task order (``ThreadPoolExecutor.map``
    preserves it), so the determinism contract is identical to the other
    backends: bit-identical estimates at any worker count.
    """

    in_process = True

    def __init__(self, workers: int) -> None:
        if workers < 2:
            raise InvalidParameterError(
                "ThreadExecutor needs >= 2 workers; use SerialExecutor")
        from concurrent.futures import ThreadPoolExecutor
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers,
                                        thread_name_prefix="repro-exec")

    def map(self, fn: Callable[[T, object], R], tasks: Sequence[T],
            shared: object = None) -> List[R]:
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) == 1 or self._pool is None:
            # One task cannot overlap with anything; skip the pool hop.
            return [fn(task, shared) for task in tasks]
        return list(self._pool.map(lambda task: fn(task, shared), tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def _call_task(fn: Callable, shared: object, task: object) -> object:
    """Module-level trampoline so pool workers can unpickle the call."""
    return fn(task, shared)


class ProcessExecutor(Executor):
    """Fan tasks out over a persistent ``multiprocessing`` pool.

    The pool is created once, up front, and reused across calls, so
    repeated scatters -- chunk waves of a long stream, successive
    counters in a benchmark sweep -- pay the spawn cost once (and
    :func:`~repro.parallel.registry.get_executor` can catch a failed
    spawn and degrade to serial).  ``fn`` and ``shared`` travel with
    each worker chunk (``workers`` pickles per map, not ``len(tasks)``).
    """

    def __init__(self, workers: int) -> None:
        if _mp is None:
            raise InvalidParameterError(
                "multiprocessing is unavailable; use SerialExecutor")
        if workers < 2:
            raise InvalidParameterError(
                "ProcessExecutor needs >= 2 workers; use SerialExecutor")
        self.workers = workers
        self._pool = _mp.Pool(workers)

    def map(self, fn: Callable[[T, object], R], tasks: Sequence[T],
            shared: object = None) -> List[R]:
        tasks = list(tasks)
        if not tasks:
            return []
        if len(tasks) == 1 or self._pool is None:
            # One task cannot use the pool; skip the pickle round-trip.
            return [fn(task, shared) for task in tasks]
        chunksize = max(1, math.ceil(len(tasks) / self.workers))
        return self._pool.map(partial(_call_task, fn, shared), tasks,
                              chunksize)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` knob: ``None``/1 -> serial, 0 -> all cores."""
    if workers is None:
        return 1
    if workers == 0:
        return available_workers()
    if workers < 0:
        raise InvalidParameterError("workers must be >= 0")
    return workers


class _OwnedExecutor:
    """Context manager handing out a caller-supplied executor un-closed,
    or a freshly resolved one that is closed on exit.

    The counters and the streaming drivers all accept ``(workers,
    executor)`` pairs; this helper keeps their ownership rule in one
    place: an executor the caller passed in is the caller's to close, an
    executor resolved from ``workers`` lives for one call.
    """

    def __init__(self, workers: Optional[int],
                 executor: Optional[Executor]) -> None:
        self._external = executor
        self._workers = workers
        self._owned: Optional[Executor] = None

    def __enter__(self) -> Executor:
        if self._external is not None:
            return self._external
        # Lazy import: the registry imports this module's classes.
        from repro.parallel.registry import get_executor
        self._owned = get_executor(self._workers)
        return self._owned

    def __exit__(self, *exc) -> None:
        if self._owned is not None:
            self._owned.close()
            self._owned = None


def executor_for(workers: Optional[int],
                 executor: Optional[Executor]) -> _OwnedExecutor:
    """``with executor_for(workers, executor) as ex: ...`` -- see
    :class:`_OwnedExecutor`."""
    return _OwnedExecutor(workers, executor)
