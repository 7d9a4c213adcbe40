"""The ``python`` kernel: the zero-dependency default implementation.

The CDCL search runs the shared loop sources
(:func:`repro.kernels.cdcl_loops.propagate` and
:func:`repro.kernels.cdcl_loops.search`) on zero-copy memoryviews over
the :class:`~repro.kernels.state.SolverState` arrays -- element access
yields plain python ints and floats, which the interpreter handles
~1.5x faster than numpy scalar indexing and without int32 wraparound
surprises.  The batched hashing ops are vectorised numpy paths: the
GF(2^n) Horner sweep of :class:`repro.gf2.gf2n.GF2n` and the SWAR
trail-zeros / bit-length tricks over uint64 lanes, bit-identical to the
scalar loops in :mod:`repro.kernels.batch_loops` that the ``numba``
kernel compiles.  Affine (Toeplitz / XOR) hashing is not a kernel op:
:class:`repro.hashing.base.LinearHash` hashes a chunk with per-byte
table gathers, which are numpy indexing under either kernel.
"""

from __future__ import annotations

import numpy as _np

from repro.kernels import cdcl_loops
from repro.kernels.cdcl_loops import R_SPHASE
from repro.kernels.state import NUM_PROP_ARGS


def _popcount_u64(a):
    """Per-element popcount of a uint64 array (SWAR)."""
    a = a - ((a >> _np.uint64(1)) & _np.uint64(0x5555555555555555))
    a = ((a >> _np.uint64(2)) & _np.uint64(0x3333333333333333)) \
        + (a & _np.uint64(0x3333333333333333))
    a = (a + (a >> _np.uint64(4))) & _np.uint64(0x0F0F0F0F0F0F0F0F)
    return (a * _np.uint64(0x0101010101010101)) >> _np.uint64(56)


class PythonKernel:
    """Pure-python/numpy implementations of the CDCL search and the
    batched hash loops."""

    name = "python"

    #: Bytecode holds the GIL; thread-parallel maps interleave rather
    #: than overlap (numpy releases it only inside individual ufuncs).
    releases_gil = False

    # -- CDCL ------------------------------------------------------------

    def propagate(self, state) -> int:
        """Run propagation to fixpoint on ``state``; returns the kernel's
        conflict code (``NO_CONFLICT`` or a conflict encoding).  Handles
        ``RESIZE_*`` sentinels by growing the exhausted arena and
        re-entering -- invisible to the caller."""
        while True:
            code = cdcl_loops.propagate(
                *state.args_mv()[:NUM_PROP_ARGS])
            if not state.grow_for(code):
                return code

    def search(self, state, mode: int) -> int:
        """Run one search entry point (``SEARCH_*`` ``mode``) on
        ``state``: 1 with a model assigned, else 0.  ``RESIZE_*`` returns
        grow the named pool and re-enter, as in :meth:`propagate`."""
        state.regs[R_SPHASE] = mode
        while True:
            code = cdcl_loops.search(*state.args_mv())
            if not state.grow_for(code):
                return code

    # -- batched hashing -------------------------------------------------

    def gf2_eval_poly_batch(self, coeffs, xs, n: int, modulus: int):
        """Horner-evaluate a GF(2^n) polynomial (``n <= 63``) at each
        point of the uint64 array ``xs``; ``coeffs`` is uint64, constant
        term first, at least one entry."""
        one = _np.uint64(1)
        mask = _np.uint64((1 << n) - 1)
        mod_low = _np.uint64(modulus & ((1 << n) - 1))
        top = _np.uint64(n - 1) if n > 1 else _np.uint64(0)
        acc = _np.full(xs.shape, coeffs[-1], dtype=_np.uint64)
        for ci in range(len(coeffs) - 2, -1, -1):
            # acc = acc * xs in the field (Russian peasant, interleaved
            # reduction; all operands stay < 2^n), then ^ coefficient.
            a = acc
            b = xs.copy()
            res = _np.zeros_like(a)
            for _ in range(int(b.max()).bit_length()):
                res ^= a & ~((b & one) - one)
                b >>= one
                carry = ~(((a >> top) & one) - one) if n > 1 \
                    else ~((a & one) - one)
                a = ((a << one) & mask) ^ (mod_low & carry)
            acc = res ^ coeffs[ci]
        return acc

    def trail_zeros_batch(self, values, out_bits: int):
        """Per-element ``TrailZero`` of uint64 hash values (int64 out;
        ``out_bits`` for zero values)."""
        values = _np.asarray(values, dtype=_np.uint64)
        lowest = values & (~values + _np.uint64(1))
        tz = _popcount_u64(lowest - _np.uint64(1)).astype(_np.int64)
        tz[values == 0] = out_bits
        return tz

    def bit_length_batch(self, values):
        """Per-element bit length of uint64 values (int64 out; 0 for 0):
        smear the top bit down, then popcount."""
        v = _np.asarray(values, dtype=_np.uint64).copy()
        for shift in (1, 2, 4, 8, 16, 32):
            v |= v >> _np.uint64(shift)
        return _popcount_u64(v).astype(_np.int64)
