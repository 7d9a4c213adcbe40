"""The 2-wise independent Toeplitz hash family ``H_Toeplitz(n, m)``.

``h(x) = A x + b`` with ``A`` a uniform Toeplitz matrix and ``b`` uniform.
Representation cost is ``(m + n - 1) + m`` bits -- the Theta(n) footprint
the paper highlights as the reason streaming algorithms prefer Toeplitz over
fully random matrices.
"""

from __future__ import annotations

from repro.common.rng import RandomSource
from repro.gf2.toeplitz import ToeplitzMatrix
from repro.hashing.base import HashFamily, LinearHash


class ToeplitzHashFamily(HashFamily):
    """``H_Toeplitz(n, m)``: sample ``h(x) = A x + b`` with Toeplitz ``A``."""

    def sample(self, rng: RandomSource) -> LinearHash:
        matrix = ToeplitzMatrix.random(rng, self.out_bits, self.in_bits)
        offsets = [rng.getrandbits(1) for _ in range(self.out_bits)]
        seed_bits = matrix.seed_bits + self.out_bits
        return LinearHash(self.in_bits, matrix.rows, offsets,
                          seed_bits=seed_bits)
