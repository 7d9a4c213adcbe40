"""Parallel execution layer (executors, registry, seed splitting, scatter).

See :mod:`repro.parallel.executor` for the backend contract and the
determinism discipline, :mod:`repro.parallel.registry` for the named
backend resolution (``serial``/``thread``/``process``/``auto`` via
``--executor`` / ``REPRO_EXECUTOR``), and
:mod:`repro.parallel.streaming` for the chunk scatter / sketch gather
plumbing the streaming side rides.
"""

from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_workers,
    executor_for,
    resolve_workers,
    split_seeds,
)
from repro.parallel.registry import (
    DEFAULT_EXECUTOR,
    ENV_VAR,
    EXECUTORS,
    executor_info,
    executor_names,
    get_executor,
    has_executor,
    register_executor,
    resolve_executor_name,
    set_default_executor,
)
from repro.parallel.streaming import DEFAULT_WAVE, ingest_stream_parallel

__all__ = [
    "DEFAULT_EXECUTOR",
    "DEFAULT_WAVE",
    "ENV_VAR",
    "EXECUTORS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "available_workers",
    "executor_for",
    "executor_info",
    "executor_names",
    "get_executor",
    "has_executor",
    "ingest_stream_parallel",
    "register_executor",
    "resolve_executor_name",
    "resolve_workers",
    "set_default_executor",
    "split_seeds",
]
