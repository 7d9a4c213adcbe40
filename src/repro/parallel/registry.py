"""The executor registry: named parallel backends behind one knob.

*Which backend* a bare ``workers=k`` fans out on is a configuration flag
instead of a hardcoded ``multiprocessing`` pool:

* ``auto`` (default) -- serial for ``workers<=1``, otherwise threads
  when the resolved compute kernel releases the GIL and processes when
  it does not.
* ``serial`` -- run everything inline, whatever ``workers`` says.
* ``thread`` -- :class:`~repro.parallel.executor.ThreadExecutor`
  (zero pickling; real scaling needs a ``releases_gil`` kernel).
* ``process`` -- :class:`~repro.parallel.executor.ProcessExecutor`
  (pays fork+pickle, immune to the GIL).

:data:`EXECUTORS` is a :class:`repro.common.registry.Registry`:
selection resolves an explicit name, else the
:func:`set_default_executor` override (the CLI's ``--executor`` flag),
else ``REPRO_EXECUTOR``, else :data:`DEFAULT_EXECUTOR`.
:func:`get_executor` adds what is executor-specific: the ``workers <= 1``
short-circuit and the degrade-to-serial fallback.  The compute kernel is
chosen the same way, once per process (:mod:`repro.kernels.registry`),
and a process pool carries that choice into its workers.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import InvalidParameterError
from repro.common.registry import Registry
from repro.kernels import KERNELS
from repro.parallel.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    resolve_workers,
)

try:
    import multiprocessing as _mp
except ImportError:  # pragma: no cover - stdlib, but the contract allows it
    _mp = None

#: The backend used when no explicit name, override, or env var applies.
DEFAULT_EXECUTOR = "auto"

#: Environment variable consulted when no explicit executor is requested.
ENV_VAR = "REPRO_EXECUTOR"

#: Entry factories receive the resolved worker count (>= 2: get_executor
#: short-circuits <= 1 to serial first).
EXECUTORS = Registry("executor", DEFAULT_EXECUTOR, ENV_VAR)

register_executor = EXECUTORS.register
executor_names = EXECUTORS.names
executor_info = EXECUTORS.info
has_executor = EXECUTORS.has
set_default_executor = EXECUTORS.set_default
resolve_executor_name = EXECUTORS.resolve


def get_executor(workers: Optional[int] = 1,
                 name: Optional[str] = None) -> Executor:
    """The executor for a ``(workers, name)`` pair.

    ``workers`` follows :func:`~repro.parallel.executor.resolve_workers`
    (``None``/1 -> serial, 0 -> all cores).  A resolved count of 1
    short-circuits to :class:`SerialExecutor` whatever the name says --
    a pool of one only adds overhead.  ``name`` picks a registered
    backend; ``None`` follows the resolution chain above.  Unavailable
    backends raise with the recorded reason; a pool-spawn failure
    (``OSError``) degrades gracefully to serial.
    """
    count = resolve_workers(workers)
    entry = EXECUTORS.get(name)
    if count <= 1:
        return SerialExecutor()
    try:
        return entry.factory(count)
    except (InvalidParameterError, OSError):  # pragma: no cover - env-specific
        return SerialExecutor()


# --------------------------------------------------------------------------
# Built-in entries


def _make_serial(count: int) -> Executor:
    return SerialExecutor()


def _make_thread(count: int) -> Executor:
    return ThreadExecutor(count)


def _make_process(count: int) -> Executor:
    return ProcessExecutor(count)


def _make_auto(count: int) -> Executor:
    # Threads scale only when the kernel's hot loops drop the GIL;
    # otherwise only processes overlap them.
    if KERNELS.info(KERNELS.resolve()).releases_gil:
        return ThreadExecutor(count)
    return ProcessExecutor(count)


register_executor(
    "auto", _make_auto,
    description="thread for GIL-releasing kernels, else process")
register_executor(
    "serial", _make_serial,
    description="run every task inline (ignores workers)")
register_executor(
    "thread", _make_thread,
    description=("persistent thread pool, zero pickling; scales only "
                 "with a releases_gil kernel"))

_mp_present = _mp is not None
register_executor(
    "process", _make_process,
    description="persistent multiprocessing pool (fork+pickle per map)",
    available=_mp_present,
    unavailable_reason=("" if _mp_present
                        else "multiprocessing is unavailable on this host"))
