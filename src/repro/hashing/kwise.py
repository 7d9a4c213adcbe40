"""The s-wise independent polynomial hash family ``H_{s-wise}(n, n)``.

``h(x) = a_0 + a_1 x + ... + a_{s-1} x^{s-1}`` evaluated in GF(2^n) with
uniform coefficients -- the standard construction of an s-wise independent
family, required by the Estimation algorithm (Lemma 3 needs
``s = O(log 1/eps)`` independence).

Unlike the affine families, a polynomial hash is **not** linear in ``x``
over GF(2) for ``s > 2``, which is exactly why the paper cannot implement
FindMaxRange for DNF formulas in polynomial time (Section 3.4); the oracle
abstraction in :mod:`repro.sat.oracle` deals with this.
"""

from __future__ import annotations

from typing import List

import numpy as _np

from repro.common.bitvec import trailing_zeros
from repro.common.rng import RandomSource
from repro.gf2.gf2n import GF2n
from repro.hashing.base import HashFamily
from repro.kernels import get_kernel


class KWiseHash:
    """A sampled degree-``s-1`` polynomial over GF(2^n)."""

    __slots__ = ("field", "coeffs", "in_bits", "out_bits")

    is_linear = False

    def __init__(self, field: GF2n, coeffs: List[int]) -> None:
        self.field = field
        self.coeffs = list(coeffs)
        self.in_bits = field.n
        self.out_bits = field.n

    @property
    def seed_bits(self) -> int:
        return len(self.coeffs) * self.field.n

    @property
    def independence(self) -> int:
        """The ``s`` of s-wise independence (number of coefficients)."""
        return len(self.coeffs)

    def value(self, x: int) -> int:
        """Hash value; the field element's bits are the output bits
        (bit ``n-1`` is "the first bit", matching the library convention)."""
        return self.field.eval_poly(self.coeffs, x)

    def prefix_value(self, x: int, m: int) -> int:
        if not 0 <= m <= self.out_bits:
            raise ValueError("prefix length out of range")
        return self.value(x) >> (self.out_bits - m)

    def trail_zeros(self, x: int) -> int:
        """``TrailZero(h(x))`` -- the Estimation sketch's update value."""
        return trailing_zeros(self.value(x), self.out_bits)

    def values_batch(self, xs) -> "object":
        """Vectorised :meth:`value`: one GF(2^n) Horner sweep over a numpy
        array of points (falls back to the scalar loop for ``n > 63``)."""
        return self.field.eval_poly_batch(self.coeffs, xs)

    def trail_zeros_batch(self, xs) -> "object":
        """Vectorised :meth:`trail_zeros` over a chunk of stream items."""
        values = self.values_batch(xs)
        if not isinstance(values, _np.ndarray):
            return [trailing_zeros(v, self.out_bits) for v in values]
        return get_kernel().trail_zeros_batch(
            values, self.out_bits)

    def max_trail_zeros(self, xs) -> int:
        """``max TrailZero(h(x))`` over a chunk -- the Estimation row's
        batched update (0 for an empty chunk, matching a fresh row)."""
        if len(xs) == 0:
            return 0
        tz = self.trail_zeros_batch(xs)
        return int(max(tz)) if isinstance(tz, list) else int(tz.max())

    def __repr__(self) -> str:
        return f"KWiseHash(n={self.in_bits}, s={len(self.coeffs)})"


class KWiseHashFamily(HashFamily):
    """``H_{s-wise}(n, n)``: uniform degree-``s-1`` GF(2^n) polynomials."""

    def __init__(self, in_bits: int, independence: int) -> None:
        super().__init__(in_bits, in_bits)
        if independence < 1:
            raise ValueError("independence must be >= 1")
        self.independence = independence
        self._field = GF2n(in_bits)

    @property
    def field(self) -> GF2n:
        """The underlying GF(2^n) instance (shared by all samples)."""
        return self._field

    def sample(self, rng: RandomSource) -> KWiseHash:
        coeffs = [rng.getrandbits(self.in_bits)
                  for _ in range(self.independence)]
        return KWiseHash(self._field, coeffs)

    def __repr__(self) -> str:
        return (f"KWiseHashFamily(in_bits={self.in_bits}, "
                f"s={self.independence})")
