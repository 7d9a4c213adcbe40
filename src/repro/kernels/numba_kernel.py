"""The ``numba`` kernel: the shared loop sources, njit-compiled.

Imports numba lazily (inside the class constructor), so this module is
importable on containers without numba; the registry entry in
:mod:`repro.kernels` is marked unavailable there and :func:`get_kernel`
never reaches this factory.  Compilation uses ``cache=True`` so the
machine code persists to disk next to the loop sources -- the warm-up
cost is paid once per environment, not once per process -- and
``nogil=True`` so every compiled loop drops the GIL for its whole run:
the loop sources touch only scalars and flat array elements (audited in
:mod:`repro.kernels.cdcl_loops` / :mod:`repro.kernels.batch_loops` --
``nopython`` compilation would reject an object-mode leak outright), so
there is nothing for the GIL to protect, and releasing it is what lets
:class:`~repro.parallel.executor.ThreadExecutor` run repetitions truly
in parallel.  The :data:`releases_gil` flag advertises this through the
registry entry, so the ``auto`` executor picks threads for it.

The compiled functions are *the same source* the ``python`` kernel
executes (:mod:`repro.kernels.cdcl_loops`,
:mod:`repro.kernels.batch_loops`), which is what makes bit-identical
behaviour a structural property rather than a testing aspiration.
Affine (Toeplitz / XOR) hashing has no compiled loop: it is a per-byte
table gather in numpy (:class:`repro.hashing.base.LinearHash`), the same
code under both kernels.
"""

from __future__ import annotations

import types

import numpy as _np

from repro.kernels import batch_loops, cdcl_loops
from repro.kernels.cdcl_loops import R_SPHASE
from repro.kernels.state import NUM_PROP_ARGS


def _jit_cdcl_loops(jit) -> dict:
    """Every function of :mod:`repro.kernels.cdcl_loops`, compiled.

    Each is rebuilt over one shared globals namespace in which the
    module's function names are bound to their compiled twins, so the
    compiled ``search`` calls compiled ``propagate``, ``analyze`` and the
    rest (numba resolves a callee through the caller's globals, and a
    plain python function there would not compile).
    """
    namespace = dict(vars(cdcl_loops))
    for name, obj in vars(cdcl_loops).items():
        if isinstance(obj, types.FunctionType) \
                and obj.__module__ == cdcl_loops.__name__:
            clone = types.FunctionType(obj.__code__, namespace, name,
                                       obj.__defaults__, obj.__closure__)
            clone.__qualname__ = obj.__qualname__
            clone.__module__ = obj.__module__
            namespace[name] = jit(clone)
    return namespace


class NumbaKernel:
    """njit-compiled implementations of the CDCL search and the batched
    hash loops."""

    name = "numba"

    #: Every compiled loop runs without the GIL (``nogil=True``), so
    #: thread-parallel repetitions overlap for real.
    releases_gil = True

    def __init__(self) -> None:
        import numba

        jit = numba.njit(cache=True, fastmath=False, nogil=True)
        compiled = _jit_cdcl_loops(jit)
        self._propagate = compiled["propagate"]
        self._search = compiled["search"]
        self._gf2_eval_poly = jit(batch_loops.gf2_eval_poly)
        self._trail_zeros = jit(batch_loops.trail_zeros)
        self._bit_length = jit(batch_loops.bit_length)

    # -- CDCL ------------------------------------------------------------

    def propagate(self, state) -> int:
        """Run propagation to fixpoint on ``state`` (numpy arrays feed
        the compiled loop directly); grows arenas on ``RESIZE_*`` and
        re-enters, same as the ``python`` kernel."""
        while True:
            code = int(self._propagate(*state.args_np()[:NUM_PROP_ARGS]))
            if not state.grow_for(code):
                return code

    def search(self, state, mode: int) -> int:
        """Run one compiled search entry point; same protocol as the
        ``python`` kernel's :meth:`~repro.kernels.python.PythonKernel.search`."""
        state.regs[R_SPHASE] = mode
        while True:
            code = int(self._search(*state.args_np()))
            if not state.grow_for(code):
                return code

    # -- batched hashing -------------------------------------------------

    def gf2_eval_poly_batch(self, coeffs, xs, n: int, modulus: int):
        """Compiled GF(2^n) Horner sweep (``n <= 63``)."""
        out = _np.empty_like(xs)
        top = _np.uint64(n - 1 if n > 1 else 0)
        mask = _np.uint64((1 << n) - 1)
        mod_low = _np.uint64(modulus & ((1 << n) - 1))
        return self._gf2_eval_poly(coeffs, xs, out, top, mask, mod_low)

    def trail_zeros_batch(self, values, out_bits: int):
        """Compiled per-element ``TrailZero``."""
        values = _np.asarray(values, dtype=_np.uint64)
        out = _np.empty(values.shape, dtype=_np.int64)
        return self._trail_zeros(values, out_bits, out)

    def bit_length_batch(self, values):
        """Compiled per-element bit length."""
        values = _np.asarray(values, dtype=_np.uint64)
        out = _np.empty(values.shape, dtype=_np.int64)
        return self._bit_length(values, out)
