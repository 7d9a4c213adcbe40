"""Affine subspaces of {0,1}^n and their images under affine maps.

An affine subspace is stored as ``origin + span(basis)``.  These objects are
the common currency of every polynomial-time path in the paper:

* the solutions of a DNF term intersected with ``h(x) = 0^m`` (BoundedSAT's
  DNF case, Proposition 1);
* the graph ``{(h(x), x)}`` of a hash, reduced once so that FindMin
  (Proposition 2) answers each DNF term with a small solve, and the hashed
  image ``h(Sol(T))`` of a term, whose trailing-zero reach FindMaxRange
  needs;
* the streamed affine spaces ``{x : Ax = b}`` of Section 5 (Proposition 4).

The key operation is :meth:`AffineSubspace.smallest_elements`, which returns
the ``p`` numerically smallest members *without* enumerating the whole
subspace: after an MSB-first reduction the elements are monotone in the
choice vector, so the smallest ``p`` correspond to choice values
``0 .. p-1``, built by doubling in ``p - 1`` XORs.

Affine maps are given in *column form*: ``columns[j]`` is the image of the
unit vector ``1 << j``, so :meth:`AffineSubspace.image` maps a vector in
one XOR per set bit (a hash caches its columns, see
:meth:`repro.hashing.base.LinearHash.columns`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.gf2.matrix import (
    apply_columns,
    reduce_modulo_basis,
    rref_msb,
    solve_affine_system,
)


class AffineSubspace:
    """``{origin ^ xor-combinations of basis}`` inside ``{0,1}^width``.

    The basis is kept in MSB-first reduced echelon form (distinct leading
    bits, each pivot bit cleared from every other vector and from the
    origin), which canonicalises the representation: two equal subspaces
    have identical ``origin`` and ``basis``.
    """

    __slots__ = ("width", "origin", "basis")

    def __init__(self, width: int, origin: int, basis: Sequence[int]) -> None:
        basis = list(basis)
        if origin >> width:
            raise ValueError(f"origin {origin:#x} does not fit in "
                             f"{width} bits")
        for vec in basis:
            if vec >> width:
                raise ValueError(f"basis vector {vec:#x} does not fit in "
                                 f"{width} bits")
        reduced, _pivots = rref_msb(basis)
        self.width = width
        self.basis = reduced
        self.origin = reduce_modulo_basis(origin, reduced)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def solve(cls, rows: Sequence[int], rhs: Sequence[int],
              width: int) -> Optional["AffineSubspace"]:
        """The solution set of ``A x = b``, or ``None`` if inconsistent."""
        solution = solve_affine_system(rows, rhs, width)
        if solution is None:
            return None
        x0, basis = solution
        return cls(width, x0, basis)

    @classmethod
    def full_space(cls, width: int) -> "AffineSubspace":
        """The whole cube {0,1}^width."""
        return cls(width, 0, [1 << i for i in range(width)])

    @classmethod
    def product(cls, spaces: Sequence["AffineSubspace"]) -> "AffineSubspace":
        """The direct product, laid out with ``spaces[0]`` in the lowest
        bits -- how a d-dimensional structured set combines its per-
        dimension pieces into one subspace of ``{0,1}^(sum widths)``."""
        width = 0
        origin = 0
        basis: List[int] = []
        for space in spaces:
            origin |= space.origin << width
            basis.extend(b << width for b in space.basis)
            width += space.width
        return cls(width, origin, basis)

    @classmethod
    def single_point(cls, width: int, point: int) -> "AffineSubspace":
        """The singleton {point}."""
        return cls(width, point, [])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Dimension of the subspace (log2 of its size)."""
        return len(self.basis)

    def size(self) -> int:
        """Number of elements, ``2**dimension``."""
        return 1 << len(self.basis)

    def contains(self, x: int) -> bool:
        """Membership test by reducing ``x - origin`` against the basis."""
        return reduce_modulo_basis(x ^ self.origin, self.basis) == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineSubspace):
            return NotImplemented
        return (self.width == other.width and self.origin == other.origin
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.width, self.origin, tuple(self.basis)))

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def element(self, choice: int) -> int:
        """The element selected by a ``dimension``-bit choice vector.

        Bit ``dimension - 1 - i`` of ``choice`` toggles ``basis[i]``; because
        the basis is sorted by decreasing pivot, elements are *strictly
        increasing* in ``choice`` (numeric order), which
        :meth:`smallest_elements` exploits.
        """
        if choice >> len(self.basis):
            raise ValueError("choice vector out of range")
        x = self.origin
        d = len(self.basis)
        for i, b in enumerate(self.basis):
            if (choice >> (d - 1 - i)) & 1:
                x ^= b
        return x

    def __iter__(self) -> Iterator[int]:
        """Iterate all elements in increasing numeric order."""
        for choice in range(self.size()):
            yield self.element(choice)

    def iter_limited(self, limit: int) -> Iterator[int]:
        """Iterate at most ``limit`` elements (ascending)."""
        for choice in range(min(limit, self.size())):
            yield self.element(choice)

    def smallest_elements(self, p: int) -> List[int]:
        """Return the ``min(p, size)`` numerically smallest elements, sorted.

        This is the fast-path primitive behind AffineFindMin
        (Proposition 4) and the structured-set streams: the subspace's
        elements are monotone in the choice vector, so the smallest ``p``
        are choices ``0..p-1``.
        They are built by doubling: choices ``0..2^k - 1`` toggle only the
        ``k`` lowest-pivot basis vectors, and the next ``2^k`` choices are
        the same list XORed with the next one up -- one XOR per element.
        """
        if p < 0:
            raise ValueError("p must be non-negative")
        if p == 0:
            return []
        out = [self.origin]
        for vec in reversed(self.basis):
            if len(out) >= p:
                break
            out.extend([x ^ vec for x in out[:p - len(out)]])
        return out

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def intersect(self, rows: Sequence[int],
                  rhs: Sequence[int]) -> Optional["AffineSubspace"]:
        """Intersect with the affine constraints ``rows . v = rhs``.

        Substituting ``v = origin ^ (choice combination)`` turns each
        constraint into a linear equation over the choice space; the result
        is mapped back to element space.  Returns ``None`` when empty.
        """
        d = len(self.basis)
        choice_rows: List[int] = []
        choice_rhs: List[int] = []
        for row, b in zip(rows, rhs):
            crow = 0
            for i, vec in enumerate(self.basis):
                if (row & vec).bit_count() & 1:
                    # basis[i] is toggled by choice bit (d - 1 - i); keep the
                    # same packing convention as :meth:`element`.
                    crow |= 1 << (d - 1 - i)
            target = (b ^ ((row & self.origin).bit_count() & 1)) & 1
            if crow == 0:
                if target:
                    return None
                continue
            choice_rows.append(crow)
            choice_rhs.append(target)
        solved = solve_affine_system(choice_rows, choice_rhs, d)
        if solved is None:
            return None
        c0, cbasis = solved
        new_origin = self.element(c0)
        new_basis = [self.element(c0 ^ cb) ^ new_origin for cb in cbasis]
        return AffineSubspace(self.width, new_origin, new_basis)

    def max_trailing_zeros(self) -> int:
        """The largest ``t`` such that some element has ``t`` trailing zero
        bits -- the FlajoletMartin / FindMaxRange quantity, computed in
        polynomial time by feasibility checks on suffix constraints."""
        lo, hi = 0, self.width
        # Binary search the monotone predicate "some element has >= t
        # trailing zeros".
        while lo < hi:
            mid = (lo + hi + 1) // 2
            rows = [1 << j for j in range(mid)]
            if self.intersect(rows, [0] * mid) is not None:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def image(self, columns: Sequence[int], offset: int,
              out_width: int) -> "AffineSubspace":
        """The image ``{A x + c : x in self}`` under an affine map.

        ``columns`` is the map's matrix in column form: ``columns[j]`` is
        the image of input bit ``j`` (one per bit of ``self.width``), an
        ``out_width``-bit int; ``offset`` is the additive constant ``c``.
        Each vector maps in one XOR per set bit.  Output bit order is the
        caller's concern; this method is bit-order agnostic.
        """
        if len(columns) != self.width:
            raise ValueError(f"map has {len(columns)} columns for a "
                             f"{self.width}-bit space")
        for j, col in enumerate(columns):
            if col >> out_width:
                raise ValueError(f"column {j} ({col:#x}) does not fit in "
                                 f"{out_width} bits")
        if offset >> out_width:
            raise ValueError(f"offset {offset:#x} does not fit in "
                             f"{out_width} bits")
        new_origin = apply_columns(columns, self.origin) ^ offset
        new_basis = [apply_columns(columns, b) for b in self.basis]
        return AffineSubspace(out_width, new_origin, new_basis)

    def __repr__(self) -> str:
        return (f"AffineSubspace(width={self.width}, dim={self.dimension}, "
                f"origin={self.origin:#x})")
