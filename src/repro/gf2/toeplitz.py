"""Toeplitz matrices over GF(2) with O(m + n) seed bits.

A Toeplitz matrix is constant along every diagonal, so an ``m x n`` instance
is determined by ``m + n - 1`` bits.  This is exactly why the paper prefers
``H_Toeplitz`` over ``H_xor`` in the streaming setting: the hash function can
be *stored* in Theta(n) bits instead of Theta(n^2), while remaining 2-wise
independent (Carter--Wegman).
"""

from __future__ import annotations

from typing import List

from repro.common.rng import RandomSource


class ToeplitzMatrix:
    """An ``nrows x ncols`` GF(2) Toeplitz matrix.

    Entry ``A[i][j]`` equals bit ``i - j + (ncols - 1)`` of the diagonal seed
    ``diag`` (so consecutive rows are sliding windows of the seed).  Rows are
    materialised once at construction as integers compatible with
    :func:`repro.gf2.matrix.mat_vec_mul`.
    """

    __slots__ = ("nrows", "ncols", "diag", "rows")

    def __init__(self, nrows: int, ncols: int, diag: int) -> None:
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        seed_len = max(nrows + ncols - 1, 0)
        if diag >> seed_len:
            raise ValueError("diagonal seed has too many bits")
        self.nrows = nrows
        self.ncols = ncols
        self.diag = diag
        self.rows = self._materialise_rows()

    @classmethod
    def random(cls, rng: RandomSource, nrows: int, ncols: int) -> "ToeplitzMatrix":
        """Sample a uniform Toeplitz matrix."""
        seed_len = max(nrows + ncols - 1, 0)
        diag = rng.getrandbits(seed_len) if seed_len else 0
        return cls(nrows, ncols, diag)

    @property
    def seed_bits(self) -> int:
        """Number of bits needed to transmit this matrix (distributed cost)."""
        return max(self.nrows + self.ncols - 1, 0)

    def _materialise_rows(self) -> List[int]:
        # Row i's window of the seed, bits i .. i+n-1, holds A[i][n-1-t]
        # at bit t, so the row is that window reversed.  Reverse the whole
        # seed once instead: row i is the n-bit window of ``rev`` at
        # length - n - i.
        n = self.ncols
        if not n:
            return [0] * self.nrows
        length = self.nrows + n - 1
        rev = int(format(self.diag, f"0{length}b")[::-1], 2)
        mask = (1 << n) - 1
        return [(rev >> (length - n - i)) & mask for i in range(self.nrows)]

    def entry(self, i: int, j: int) -> int:
        """Return ``A[i][j]`` (bounds-checked)."""
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise IndexError("Toeplitz index out of range")
        return (self.rows[i] >> j) & 1

    def __repr__(self) -> str:
        return (f"ToeplitzMatrix(nrows={self.nrows}, ncols={self.ncols}, "
                f"diag={self.diag:#x})")
