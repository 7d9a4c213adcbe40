"""The 2-wise independent random-matrix family ``H_xor(n, m)``.

``h(x) = A x + b`` with every entry of ``A`` an independent coin.  Costs
Theta(n * m) representation bits (the paper's point of contrast with
Toeplitz).  A ``density`` parameter below 0.5 yields the *sparse XOR*
variants from the paper's future-work discussion (each row is
Bernoulli-``density``), used by the sparse-hash ablation benchmark.
"""

from __future__ import annotations

from repro.common.rng import RandomSource
from repro.gf2.matrix import random_matrix_rows
from repro.hashing.base import HashFamily, LinearHash


class XorHashFamily(HashFamily):
    """``H_xor(n, m)`` with optional row density for sparse-XOR ablation."""

    def __init__(self, in_bits: int, out_bits: int,
                 density: float = 0.5) -> None:
        super().__init__(in_bits, out_bits)
        if not 0.0 < density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        self.density = density

    def sample(self, rng: RandomSource) -> LinearHash:
        rows = random_matrix_rows(rng, self.out_bits, self.in_bits,
                                  density=self.density)
        offsets = [rng.getrandbits(1) for _ in range(self.out_bits)]
        seed_bits = self.out_bits * self.in_bits + self.out_bits
        return LinearHash(self.in_bits, rows, offsets, seed_bits=seed_bits)

    def __repr__(self) -> str:
        return (f"XorHashFamily(in_bits={self.in_bits}, "
                f"out_bits={self.out_bits}, density={self.density})")
