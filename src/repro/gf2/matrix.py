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
* :func:`transpose` of ``r`` rows by ``c`` columns: one ``r c``-character
  string and ``c`` strided slices of it, all in C; ``c`` calls to
  :func:`mat_vec_mul` with unit vectors give the same at ``r c`` popcounts
  in Python steps.
* :func:`rank` and :func:`rref_msb` share one XOR basis keyed by leading
  bit: inserting a vector costs at most one XOR per basis vector whose
  leading bit it meets, ``O(k d)`` XORs in all.  :func:`rref_msb`'s
  back-substitution then runs from the lowest pivot up and XORs only the
  pivot bits actually set, at most ``d (d - 1) / 2`` XORs.
* :func:`solve_affine_system` of ``r`` equations in ``c`` unknowns of rank
  ``k``: ``O(r k)`` XORs to reduce, then the ``c - k`` nullspace vectors
  as strided slices of one ``c^2``-character string.
* An affine map given in column form (the image of each unit vector, see
  :meth:`repro.gf2.affine.AffineSubspace.image`, :func:`apply_columns`)
  sends ``x`` to its image in ``popcount(x)`` XORs rather than one
  popcount per output row.  A hash builds its column table once, one
  :func:`transpose`.  DNF FindMin reduces the hash's graph once and then
  costs one ``w``-equation :func:`solve_affine_system` per term of width
  ``w`` (see :mod:`repro.core.find_min`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import RandomSource


_BIT_CHARS = ("0", "1")


def mat_vec_mul(rows: Sequence[int], x: int) -> int:
    """Multiply a GF(2) matrix by a column vector.

    The result has the bit for row ``r`` at position ``r`` (LSB-indexed);
    callers that need the paper's "row 0 is the first/most significant bit"
    convention repack at the hashing layer.
    """
    if not rows:
        return 0
    # One character per row, last row first, so int() puts row r at bit r.
    return int("".join([_BIT_CHARS[(row & x).bit_count() & 1]
                        for row in reversed(rows)]), 2)


def apply_columns(columns: Sequence[int], x: int) -> int:
    """The linear map with the given columns applied to ``x``: the XOR of
    ``columns[j]`` over the set bits ``j`` of ``x``."""
    out = 0
    while x:
        low = x & -x
        out ^= columns[low.bit_length() - 1]
        x ^= low
    return out


def transpose(rows: Sequence[int], ncols: int) -> List[int]:
    """The transpose of the matrix's first ``ncols`` columns: entry ``j``
    has bit ``r`` set exactly when ``rows[r]`` has bit ``j`` set.

    The rows are written out as one binary string and each column is a
    strided slice of it, so the bit shuffling runs in C rather than one
    Python step per entry (``mat_vec_mul`` with each unit vector gives
    the same columns at one popcount per entry).
    """
    if not rows or not ncols:
        return [0] * ncols
    mask = (1 << ncols) - 1
    # Row r's string sits last-first, so bit r of a column is row r; bit j
    # of a row is at index ncols - 1 - j of its string.
    bits = "".join([format(row & mask, f"0{ncols}b")
                    for row in reversed(rows)])
    return [int(bits[j::ncols], 2) for j in range(ncols - 1, -1, -1)]


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

    Pivots are lowest set bits, so the result has a fixed shape: ``x0``
    is zero on every free column, and ``basis`` holds one vector per free
    column in increasing order, whose highest bit is that column and whose
    other bits are pivot columns.  It is thus already an MSB-first reduced
    basis (see :func:`rref_msb`) with ``x0`` reduced against it.
    """
    if len(rows) != len(rhs):
        raise ValueError("rows and rhs must have equal length")
    rhs_bit = 1 << ncols  # Augmented column position.
    coeff_mask = rhs_bit - 1
    # Fully reduced rows keyed by their pivot (lowest coefficient) bit:
    # each pivot bit is set in its own row only.
    by_pivot: Dict[int, int] = {}
    pivot_mask = 0
    for row, b in zip(rows, rhs):
        if row >> ncols:
            raise ValueError("row has bits beyond ncols")
        vec = row | (rhs_bit if b & 1 else 0)
        hits = vec & pivot_mask
        while hits:
            bit = hits & -hits
            vec ^= by_pivot[bit]
            hits ^= bit
        coeffs = vec & coeff_mask
        if coeffs == 0:
            if vec:  # 0 = 1: inconsistent.
                return None
            continue
        bit = coeffs & -coeffs
        # Eliminate the new pivot from previously reduced rows.
        for pivot, other in by_pivot.items():
            if other & bit:
                by_pivot[pivot] = other ^ vec
        by_pivot[bit] = vec
        pivot_mask |= bit

    # Particular solution: set each pivot column from its row's rhs, free
    # columns to zero.
    x0 = 0
    for bit, vec in by_pivot.items():
        if vec & rhs_bit:
            x0 |= bit
    # Nullspace basis: one vector per free column c, e_c plus the pivots
    # whose rows hold c -- column c of the reduced rows laid out by pivot.
    # One string of the ncols x ncols layout, read by strided slices,
    # moves the bits in C rather than one Python step per entry.
    zeros = "0" * ncols
    fmt = f"0{ncols}b"
    layout = "".join([format(by_pivot[1 << q] & coeff_mask, fmt)
                      if (pivot_mask >> q) & 1 else zeros
                      for q in range(ncols - 1, -1, -1)])
    basis: List[int] = []
    for col in range(ncols):
        if not (pivot_mask >> col) & 1:
            basis.append((1 << col)
                         | int(layout[ncols - 1 - col::ncols], 2))
    return x0, basis


def nullspace_basis(rows: Sequence[int], ncols: int) -> List[int]:
    """Return a basis of ``{x : A x = 0}``."""
    solution = solve_affine_system(rows, [0] * len(rows), ncols)
    assert solution is not None  # The homogeneous system is always solvable.
    return solution[1]
