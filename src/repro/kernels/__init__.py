"""Compute kernels for the two hot loops (registry + implementations).

Importing this package registers the built-in kernels:

* ``python`` -- always available; the factored-out pure-python/numpy
  paths (:mod:`repro.kernels.python`).
* ``numba`` -- registered unconditionally so listings can explain its
  status, but marked *unavailable* when numba is not importable
  (:mod:`repro.kernels.numba_kernel` is only imported by the factory).

See :mod:`repro.kernels.registry` for the selection rules
(explicit name -> :func:`set_default_kernel` override -> ``REPRO_KERNEL``
-> ``python``) and DESIGN.md ("Compute-kernel registry") for the
array-layout contract kernels code against.
"""

from __future__ import annotations

import importlib.util as _importlib_util

from repro.kernels.registry import (
    DEFAULT_KERNEL,
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
    "resolve_kernel_name",
    "set_default_kernel",
]


def _make_python():
    from repro.kernels.python import PythonKernel
    return PythonKernel()


def _make_numba():
    from repro.kernels.numba_kernel import NumbaKernel
    return NumbaKernel()


register_kernel(
    "python", _make_python,
    description="pure python + vectorised numpy (zero extra dependencies)")

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
