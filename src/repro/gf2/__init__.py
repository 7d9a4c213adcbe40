"""Linear algebra over GF(2) and arithmetic in GF(2^n).

This package is the mathematical substrate for everything hashing-related in
the paper:

* :mod:`repro.gf2.matrix` -- dense GF(2) matrices stored as integer rows,
  with Gaussian elimination, affine-system solving, and MSB-first reduced
  echelon forms (the workhorse of the lex-minimum algorithms).
* :mod:`repro.gf2.toeplitz` -- the O(n)-seed Toeplitz matrices behind
  ``H_Toeplitz`` (Carter--Wegman 2-universal hashing).
* :mod:`repro.gf2.gf2n` -- the finite field GF(2^n) (carry-less
  multiplication, Rabin irreducibility testing) behind the s-wise
  independent polynomial hash family.
* :mod:`repro.gf2.affine` -- affine subspaces of {0,1}^n: solving,
  enumeration, images under affine maps, and numerically-smallest-element
  enumeration.
"""

from repro.gf2.affine import AffineSubspace
from repro.gf2.gf2n import GF2n, find_irreducible, is_irreducible
from repro.gf2.matrix import (
    apply_columns,
    mat_vec_mul,
    nullspace_basis,
    random_matrix_rows,
    rank,
    rref_msb,
    solve_affine_system,
    transpose,
)
from repro.gf2.toeplitz import ToeplitzMatrix

__all__ = [
    "AffineSubspace",
    "GF2n",
    "ToeplitzMatrix",
    "apply_columns",
    "find_irreducible",
    "is_irreducible",
    "mat_vec_mul",
    "nullspace_basis",
    "random_matrix_rows",
    "rank",
    "rref_msb",
    "solve_affine_system",
    "transpose",
]
