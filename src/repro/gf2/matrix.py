"""Dense GF(2) matrices as lists of integer rows.

A matrix with ``ncols`` columns is a ``list[int]`` where row ``r`` is an
integer whose bit ``j`` (LSB-indexed) is the entry in column ``j``.  This
representation makes row operations single XORs and matrix-vector products a
popcount, which is the fastest dense GF(2) kernel available in pure Python.

Two pivoting conventions are provided because the library needs both:

* :func:`solve_affine_system` and :func:`nullspace_basis` pivot on the
  *lowest* set bit -- order is irrelevant for solving.
* :func:`rref_msb` pivots on the *highest* set bit, producing the reduced
  basis used to enumerate the numerically smallest elements of an affine
  subspace (see :class:`repro.gf2.affine.AffineSubspace`).

Cost model (``k`` input vectors of width ``w`` spanning dimension ``d``;
one XOR or popcount of a ``w``-bit int is one word-parallel step):

* :func:`mat_vec_mul` of an ``r``-row matrix: ``r`` popcounts.
* :func:`rank` and :func:`rref_msb` share one XOR basis keyed by leading
  bit: inserting a vector costs at most one XOR per basis vector whose
  leading bit it meets, ``O(k d)`` XORs in all.  :func:`rref_msb`'s
  back-substitution then runs from the lowest pivot up and XORs only the
  pivot bits actually set, at most ``d (d - 1) / 2`` XORs.
* An affine map given in column form (the image of each unit vector, see
  :meth:`repro.gf2.affine.AffineSubspace.image`) sends ``x`` to its image
  in ``popcount(x)`` XORs rather than one popcount per output row.  A
  hash builds its column table once, ``in_bits`` calls to
  :func:`mat_vec_mul`, so a DNF term's FindMin image costs one XOR per
  set bit of its origin and basis plus the reduction of the image basis.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import RandomSource


def mat_vec_mul(rows: Sequence[int], x: int) -> int:
    """Multiply a GF(2) matrix by a column vector.

    The result has the bit for row ``r`` at position ``r`` (LSB-indexed);
    callers that need the paper's "row 0 is the first/most significant bit"
    convention repack at the hashing layer.
    """
    out = 0
    for r, row in enumerate(rows):
        out |= ((row & x).bit_count() & 1) << r
    return out


def random_matrix_rows(rng: RandomSource, nrows: int, ncols: int,
                       density: float = 0.5) -> List[int]:
    """Sample a uniform (or sparse Bernoulli) random GF(2) matrix.

    ``density == 0.5`` gives the uniform distribution used by ``H_xor``;
    other densities support the sparse-XOR ablation sketched in the paper's
    future-work section.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if density == 0.5:
        return [rng.getrandbits(ncols) if ncols else 0 for _ in range(nrows)]
    rows = []
    for _ in range(nrows):
        row = 0
        for j in range(ncols):
            if rng.random() < density:
                row |= 1 << j
        rows.append(row)
    return rows


def _xor_basis(vectors: Sequence[int]) -> Dict[int, int]:
    """An XOR basis of the span of ``vectors``, keyed by leading bit.

    Insertion reduces the candidate by the unique basis vector sharing its
    leading bit until it is zero or has a fresh leading bit, so keys are
    ``bit_length()`` values and pairwise distinct.
    """
    by_lead: Dict[int, int] = {}
    for vec in vectors:
        while vec:
            lead = vec.bit_length()
            other = by_lead.get(lead)
            if other is None:
                by_lead[lead] = vec
                break
            vec ^= other
    return by_lead


def rank(rows: Sequence[int]) -> int:
    """Return the GF(2) rank of the matrix."""
    return len(_xor_basis(rows))


def rref_msb(vectors: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form with *most-significant-bit* pivots.

    Returns ``(basis, pivots)`` where ``basis`` is sorted by decreasing pivot
    position, each pivot bit appears in exactly one basis vector, and
    ``pivots[i]`` is the bit position of ``basis[i]``'s leading bit.  The
    reduced form of a span is unique, so the result depends only on the
    space the vectors span.
    """
    by_lead = _xor_basis(vectors)
    # Back-substitute from the lowest pivot up: every lower vector is
    # already reduced, so XORing it in clears its pivot bit without
    # setting any other pivot bit, and each set pivot bit costs one XOR.
    by_pivot: Dict[int, int] = {}
    pivot_mask = 0
    for lead in sorted(by_lead):
        vec = by_lead[lead]
        hits = vec & pivot_mask
        while hits:
            bit = hits & -hits
            vec ^= by_pivot[bit]
            hits ^= bit
        by_pivot[1 << (lead - 1)] = vec
        pivot_mask |= 1 << (lead - 1)
    basis = list(reversed(by_pivot.values()))
    pivots = [b.bit_length() - 1 for b in basis]
    return basis, pivots


def reduce_modulo_basis(vec: int, basis: Sequence[int]) -> int:
    """Clear every pivot bit of an MSB-first RREF ``basis`` from ``vec``."""
    for b in basis:
        if (vec >> (b.bit_length() - 1)) & 1:
            vec ^= b
    return vec


def solve_affine_system(
    rows: Sequence[int],
    rhs: Sequence[int],
    ncols: int,
) -> Optional[Tuple[int, List[int]]]:
    """Solve ``A x = b`` over GF(2).

    ``rows[r]`` is row ``r`` of ``A`` (column ``j`` at bit ``j``) and
    ``rhs[r]`` its right-hand-side bit.  Returns ``None`` when the system is
    inconsistent, else ``(x0, basis)`` where ``x0`` is one solution and
    ``basis`` spans the nullspace of ``A`` (so the full solution set is
    ``{x0 ^ span(basis)}``, of size ``2**len(basis)``).
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs must have equal length")
    rhs_bit = 1 << ncols  # Augmented column position.
    aug: List[int] = []
    for row, b in zip(rows, rhs):
        if row >> ncols:
            raise ValueError("row has bits beyond ncols")
        aug.append(row | (rhs_bit if b & 1 else 0))

    pivot_of_col: dict[int, int] = {}
    reduced: List[int] = []
    for vec in aug:
        for col, idx in pivot_of_col.items():
            if (vec >> col) & 1:
                vec ^= reduced[idx]
        coeffs = vec & (rhs_bit - 1)
        if coeffs == 0:
            if vec:  # 0 = 1: inconsistent.
                return None
            continue
        col = (coeffs & -coeffs).bit_length() - 1
        # Eliminate the new pivot from previously reduced rows.
        for i, other in enumerate(reduced):
            if (other >> col) & 1:
                reduced[i] = other ^ vec
        pivot_of_col[col] = len(reduced)
        reduced.append(vec)

    # Particular solution: set each pivot column from its row's rhs, free
    # columns to zero.
    x0 = 0
    for col, idx in pivot_of_col.items():
        if (reduced[idx] >> ncols) & 1:
            x0 |= 1 << col
    # Nullspace basis: one vector per free column.
    basis: List[int] = []
    pivot_cols = set(pivot_of_col)
    for col in range(ncols):
        if col in pivot_cols:
            continue
        vec = 1 << col
        for pcol, idx in pivot_of_col.items():
            if (reduced[idx] >> col) & 1:
                vec |= 1 << pcol
        basis.append(vec)
    return x0, basis


def nullspace_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Return a basis of ``{x : A x = 0}``."""
    solution = solve_affine_system(rows, [0] * len(rows), ncols)
    assert solution is not None  # The homogeneous system is always solvable.
    return solution[1]
