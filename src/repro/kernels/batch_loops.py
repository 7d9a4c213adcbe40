"""Scalar per-element loops for the batched hashing hot paths.

Single-source siblings of :mod:`repro.kernels.cdcl_loops`: each function
below is written in the numba-compatible subset of python and computes
exactly what the vectorised numpy paths of the ``python`` kernel compute
-- GF(2^n) Horner evaluation (Russian-peasant multiply with interleaved
reduction), trail-zeros and bit-length.  Affine hashing has no loop
here: :class:`repro.hashing.base.LinearHash` evaluates it with per-byte
table gathers in numpy, the same code under every kernel.  The
``numba`` kernel njit-compiles them; the parity tests also run them
*uncompiled* on small inputs, so the loop sources themselves are covered
by tier-1 CI where numba is absent.

All arrays are uint64 (int64 for count outputs); constants are
``np.uint64`` so arithmetic stays in uint64 under both interpreters
(mixed int64/uint64 expressions would promote to float64 in numba).
Like the CDCL loop, every function stays in the no-object subset, so
the ``numba`` kernel compiles them ``nogil=True`` and whole Horner /
trail-zeros sweeps run GIL-free under thread-parallel repetitions.
"""

from __future__ import annotations

import numpy as _np

_ZERO = _np.uint64(0)
_ONE = _np.uint64(1)


def gf2_eval_poly(coeffs, xs, out, top, mask, mod_low):
    """Horner-evaluate a GF(2^n) polynomial at each point of ``xs``.

    ``coeffs`` is uint64, constant term first (at least one entry);
    ``top``/``mask``/``mod_low`` are the uint64 reduction constants
    ``n - 1`` (0 for n == 1), ``2**n - 1`` and the modulus without its
    top bit.  Writes field elements into ``out``.
    """
    s = len(coeffs)
    for i in range(len(xs)):
        x = xs[i]
        acc = coeffs[s - 1]
        for c in range(s - 2, -1, -1):
            # acc = acc * x (Russian peasant, reduced), then ^ coeff.
            a = acc
            b = x
            res = _ZERO
            while b != _ZERO:
                if (b & _ONE) != _ZERO:
                    res ^= a
                b >>= _ONE
                carry = (a >> top) & _ONE
                a = (a << _ONE) & mask
                if carry != _ZERO:
                    a ^= mod_low
            acc = res ^ coeffs[c]
        out[i] = acc
    return out


def trail_zeros(values, out_bits, out):
    """Per-element ``TrailZero``: trailing zero bits of each uint64
    value, ``out_bits`` for a zero value.  Writes int64 counts."""
    for i in range(len(values)):
        v = values[i]
        if v == _ZERO:
            out[i] = out_bits
        else:
            count = 0
            while (v & _ONE) == _ZERO:
                v >>= _ONE
                count += 1
            out[i] = count
    return out


def bit_length(values, out):
    """Per-element bit length of each uint64 value (0 for 0); the
    ``cell_level`` building block (``level = out_bits - bit_length``).
    Writes int64 lengths."""
    for i in range(len(values)):
        v = values[i]
        count = 0
        while v != _ZERO:
            v >>= _ONE
            count += 1
        out[i] = count
    return out
