"""Compute kernels for the two hot loops (registry + implementations).

Importing this package registers the built-in kernels:

* ``native`` -- the whole CDCL search compiled from C on first use,
  hashing as ``python`` (:mod:`repro.kernels.native`); marked *unavailable*
  when no C compiler is on ``PATH``.
* ``python`` -- always available; the factored-out pure-python/numpy
  paths (:mod:`repro.kernels.python`).
* ``numba`` -- registered unconditionally so listings can explain its
  status, but marked *unavailable* when numba is not importable
  (:mod:`repro.kernels.numba_kernel` is only imported by the factory).

:data:`DEFAULT_KERNEL` is ``native`` when that entry is available, else
``python``.  See :mod:`repro.kernels.registry` for the selection rules
(explicit name -> :func:`set_default_kernel` override -> ``REPRO_KERNEL``
-> default) and DESIGN.md ("Compute-kernel registry") for the
array-layout contract kernels code against.
"""

from __future__ import annotations

import importlib.util as _importlib_util

from repro.common.registry import Entry
from repro.kernels import native as _native
from repro.kernels.registry import (
    ENV_VAR,
    KERNELS,
    get_kernel,
    has_kernel,
    kernel_info,
    kernel_names,
    register_kernel,
    resolve_kernel_name,
    set_default_kernel,
)

__all__ = [
    "DEFAULT_KERNEL",
    "ENV_VAR",
    "KERNELS",
    "get_kernel",
    "has_kernel",
    "kernel_info",
    "kernel_names",
    "register_kernel",
    "register_native_kernel",
    "resolve_kernel_name",
    "set_default_kernel",
]


def _make_python():
    from repro.kernels.python import PythonKernel
    return PythonKernel()


def _make_native():
    return _native.NativeKernel()


def _make_numba():
    from repro.kernels.numba_kernel import NumbaKernel
    return NumbaKernel()


def register_native_kernel() -> Entry:
    """(Re)register ``native`` by whether a C compiler is on ``PATH``
    now, and make it the registry default exactly when it is available.

    Only the compiler lookup runs here; the compile waits for the first
    ``propagate`` or ``search`` call.
    """
    available = _native.find_compiler() is not None
    entry = register_kernel(
        "native", _make_native,
        description=("the CDCL search (cdcl_loops) in C, compiled on "
                     "first use (hashing as python)"),
        available=available,
        unavailable_reason="" if available else _native.NO_COMPILER,
        replace=True)
    KERNELS.default = "native" if available else "python"
    return entry


register_kernel(
    "python", _make_python,
    description="pure python + vectorised numpy (zero extra dependencies)")

register_native_kernel()

#: The kernel used when no explicit name, override, or env var applies.
DEFAULT_KERNEL = KERNELS.default

# find_spec keeps registration cheap: importing numba itself costs
# hundreds of milliseconds, deferred to first get_kernel("numba").
_numba_present = _importlib_util.find_spec("numba") is not None
register_kernel(
    "numba", _make_numba,
    description=("njit-compiled nogil loops (same sources, "
                 "soft dependency)"),
    available=_numba_present,
    unavailable_reason=(
        "" if _numba_present
        else "numba is not installed (pip install 'repro[numba]')"),
    releases_gil=True)
