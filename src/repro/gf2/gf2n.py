"""The finite field GF(2^n) on plain integers.

Field elements are integers in ``[0, 2**n)`` read as polynomials over GF(2)
(bit ``i`` is the coefficient of ``x**i``), reduced modulo a fixed degree-n
irreducible polynomial.  The s-wise independent hash family of the paper
(Section 2, used by the Estimation algorithm) is a uniformly random degree-
``s-1`` polynomial over this field.

Irreducible moduli are found at runtime with Rabin's irreducibility test,
preferring trinomials then pentanomials so the reduction step stays cheap.
The search is deterministic, so a given ``n`` always yields the same field.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as _np

from repro.common.errors import InvalidParameterError
from repro.kernels import get_kernel


def poly_degree(f: int) -> int:
    """Degree of a GF(2)[x] polynomial (-1 for the zero polynomial)."""
    return f.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two polynomials."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def poly_mod(a: int, f: int) -> int:
    """Remainder of ``a`` modulo ``f`` in GF(2)[x]."""
    if f == 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    df = poly_degree(f)
    da = poly_degree(a)
    while da >= df:
        a ^= f << (da - df)
        da = poly_degree(a)
    return a


def poly_mulmod(a: int, b: int, f: int) -> int:
    """Product of ``a`` and ``b`` reduced modulo ``f``."""
    return poly_mod(poly_mul(a, b), f)


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor in GF(2)[x]."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _x_pow_pow2_mod(k: int, f: int) -> int:
    """Compute ``x**(2**k) mod f`` by k repeated squarings."""
    t = poly_mod(0b10, f)  # The polynomial x.
    for _ in range(k):
        t = poly_mulmod(t, t, f)
    return t


def _prime_factors(n: int) -> List[int]:
    """Distinct prime factors of ``n`` by trial division (n is small)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(f: int) -> bool:
    """Rabin's irreducibility test for a GF(2)[x] polynomial.

    ``f`` of degree ``d`` is irreducible iff ``x**(2**d) == x (mod f)`` and
    for every prime divisor ``q`` of ``d``,
    ``gcd(x**(2**(d/q)) - x, f) == 1``.
    """
    d = poly_degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if not (f & 1):  # Divisible by x.
        return False
    x = 0b10
    if _x_pow_pow2_mod(d, f) != poly_mod(x, f):
        return False
    for q in _prime_factors(d):
        h = _x_pow_pow2_mod(d // q, f) ^ poly_mod(x, f)
        if poly_gcd(f, h) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(n: int) -> int:
    """Return a deterministic degree-``n`` irreducible polynomial.

    Searches trinomials ``x^n + x^k + 1`` with the smallest ``k`` first, then
    pentanomials; low weight keeps :func:`poly_mod` fast.  Every ``n`` in the
    range this library uses (up to a few hundred) admits such a polynomial.
    """
    if n < 1:
        raise InvalidParameterError("field degree must be >= 1")
    if n == 1:
        return 0b10  # x itself: GF(2)[x]/(x) == GF(2).
    top = 1 << n
    for k in range(1, n):
        f = top | (1 << k) | 1
        if is_irreducible(f):
            return f
    for k3 in range(3, n):
        for k2 in range(2, k3):
            for k1 in range(1, k2):
                f = top | (1 << k3) | (1 << k2) | (1 << k1) | 1
                if is_irreducible(f):
                    return f
    raise InvalidParameterError(
        f"no low-weight irreducible polynomial of degree {n} found")


class GF2n:
    """Arithmetic in GF(2^n) with a fixed (deterministic) modulus."""

    __slots__ = ("n", "modulus", "size")

    def __init__(self, n: int, modulus: int | None = None) -> None:
        if n < 1:
            raise InvalidParameterError("field degree must be >= 1")
        if modulus is None:
            modulus = find_irreducible(n)
        if poly_degree(modulus) != n:
            raise InvalidParameterError("modulus degree does not match n")
        if not is_irreducible(modulus):
            raise InvalidParameterError("modulus is not irreducible")
        self.n = n
        self.modulus = modulus
        self.size = 1 << n

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        return poly_mulmod(a, b, self.modulus)

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation by square-and-multiply."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = poly_mod(a, self.modulus)
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat (``a**(2^n - 2)``)."""
        a = poly_mod(a, self.modulus)
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^n)")
        return self.pow(a, self.size - 2)

    def eval_poly(self, coeffs: List[int], x: int) -> int:
        """Evaluate ``sum coeffs[i] * x**i`` by Horner's rule.

        ``coeffs[0]`` is the constant term.  This is the hash evaluation of
        the s-wise independent family: ``h(x) = a_0 + a_1 x + ... +
        a_{s-1} x^{s-1}``.
        """
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

    def _batchable(self) -> bool:
        """Whether the vectorised field path applies.  The shift-and-reduce
        step needs ``a << 1`` to fit in a uint64, hence ``n <= 63``."""
        return self.n <= 63

    def eval_poly_batch(self, coeffs: List[int], xs) -> "object":
        """Vectorised :meth:`eval_poly` over a numpy array of points --
        the batched s-wise hash evaluation, dispatched to the selected
        compute kernel (:mod:`repro.kernels`).  Falls back to the scalar
        Horner loop for ``n > 63``."""
        if not self._batchable():
            return [self.eval_poly(coeffs, int(x)) for x in xs]
        xs = _np.asarray(xs, dtype=_np.uint64)
        if not coeffs or xs.size == 0:
            return _np.zeros_like(xs)
        coeff_arr = _np.array(coeffs, dtype=_np.uint64)
        return get_kernel().gf2_eval_poly_batch(
            coeff_arr, xs, self.n, self.modulus)

    def __repr__(self) -> str:
        return f"GF2n(n={self.n}, modulus={self.modulus:#x})"
