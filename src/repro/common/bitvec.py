"""Bit-vector helpers on plain Python integers.

Throughout the library an element of ``{0,1}^n`` is represented as a Python
``int`` in ``[0, 2**n)``.  Two *different* bit orders appear in the paper and
both are supported explicitly rather than implicitly:

* **Assignment order** -- variable ``x_i`` (1-indexed, DIMACS style) lives at
  bit position ``i - 1`` (LSB).  Used for formula assignments.
* **Hash-value order** -- the output of an ``m``-row hash function is an int
  whose *most significant* bit is row 0 ("the first bit" in the paper), so
  that numeric comparison of hash values coincides with lexicographic
  comparison of the corresponding bit strings.  See
  :mod:`repro.hashing.base` for the accessors built on these helpers.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def popcount(x: int) -> int:
    """Return the number of set bits of a non-negative integer."""
    return x.bit_count()


def parity(x: int) -> int:
    """Return the XOR of all bits of ``x`` (0 or 1)."""
    return x.bit_count() & 1


def bit(x: int, i: int) -> int:
    """Return bit ``i`` (0-indexed from the LSB) of ``x``."""
    return (x >> i) & 1


def bits_of(x: int, width: int) -> Iterator[int]:
    """Yield the ``width`` bits of ``x`` from LSB (position 0) upward."""
    for i in range(width):
        yield (x >> i) & 1


def from_bits(bits: Iterable[int]) -> int:
    """Inverse of :func:`bits_of`: build an int from LSB-first bits."""
    x = 0
    for i, b in enumerate(bits):
        if b:
            x |= 1 << i
    return x


def trailing_zeros(x: int, width: int) -> int:
    """Return the number of trailing (least-significant) zero bits.

    For ``x == 0`` every one of the ``width`` bits is zero, so ``width`` is
    returned -- this matches the paper's ``TrailZero`` convention where an
    all-zero hash value has the maximal number of trailing zeros.
    """
    if x == 0:
        return width
    return (x & -x).bit_length() - 1


def leading_zeros(x: int, width: int) -> int:
    """Return the number of leading (most-significant) zero bits of ``x``
    when viewed as a ``width``-bit string."""
    if x >> width:
        raise ValueError(f"value {x} does not fit in {width} bits")
    return width - x.bit_length()


def reverse_bits(x: int, width: int) -> int:
    """Return ``x`` with its ``width``-bit representation reversed."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def trailing_zeros_batch(values, width: int):
    """Batched :func:`trailing_zeros` over a uint64 numpy array.

    Dispatches to the selected compute kernel (:mod:`repro.kernels`) --
    SWAR bit tricks on the default ``python`` kernel, an njit-compiled
    loop on ``numba``.  Returns an int64 array (``width`` for zeros).
    """
    from repro.kernels import get_kernel
    return get_kernel().trail_zeros_batch(values, width)


def bit_length_batch(values):
    """Batched ``int.bit_length`` over a uint64 numpy array (int64 out;
    0 for 0).  ``leading_zeros`` of a ``width``-bit value is ``width``
    minus this, which is how the hash layer computes cell levels."""
    from repro.kernels import get_kernel
    return get_kernel().bit_length_batch(values)
