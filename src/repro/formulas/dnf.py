"""DNF formulas and the affine view of their terms.

A DNF term (conjunction of literals) fixes some variables and leaves the
rest free, so its solution set is a subcube -- an affine subspace of
``{0,1}^n``.  Every polynomial-time path in the paper (BoundedSAT's DNF case,
FindMin, the structured-stream algorithms) works through this affine view,
exposed here as :meth:`DnfTerm.solution_space`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import InvalidParameterError
from repro.gf2.affine import AffineSubspace


class DnfTerm:
    """A conjunction of literals over variables ``1 .. num_vars``.

    Terms are normalised: duplicate literals are dropped.  A term containing
    both ``v`` and ``-v`` is *contradictory* (empty solution set); it is kept
    so parsers round-trip, but every algorithm treats it as empty.
    """

    __slots__ = ("literals", "pos_mask", "neg_mask")

    def __init__(self, literals: Sequence[int]) -> None:
        seen = []
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise InvalidParameterError("literal 0 is not allowed")
            if lit not in seen:
                seen.append(lit)
        self.literals: Tuple[int, ...] = tuple(seen)
        pos = 0
        neg = 0
        for lit in self.literals:
            if lit > 0:
                pos |= 1 << (lit - 1)
            else:
                neg |= 1 << (-lit - 1)
        self.pos_mask = pos
        self.neg_mask = neg

    @property
    def width(self) -> int:
        """Number of distinct fixed variables (the paper's ``w``)."""
        return (self.pos_mask | self.neg_mask).bit_count()

    @property
    def is_contradictory(self) -> bool:
        """True when some variable occurs with both polarities."""
        return bool(self.pos_mask & self.neg_mask)

    def max_var(self) -> int:
        """Largest variable index mentioned (0 for the empty term)."""
        return max((abs(l) for l in self.literals), default=0)

    def evaluate(self, assignment: int) -> bool:
        """True iff the assignment satisfies every literal of the term."""
        if self.is_contradictory:
            return False
        fixed = self.pos_mask | self.neg_mask
        return (assignment & fixed) == self.pos_mask

    def solution_count(self, num_vars: int) -> int:
        """``2**(num_vars - width)`` free assignments (0 if contradictory)."""
        if self.is_contradictory:
            return 0
        return 1 << (num_vars - self.width)

    def solution_space(self, num_vars: int) -> Optional[AffineSubspace]:
        """The term's solutions as an affine subspace of ``{0,1}^num_vars``
        (``None`` for a contradictory term): origin ``pos_mask``, one unit
        vector per free variable -- already the canonical reduced form."""
        if self.is_contradictory:
            return None
        fixed = self.pos_mask | self.neg_mask
        if fixed >> num_vars:
            raise ValueError(f"term {self} exceeds num_vars={num_vars}")
        free = [1 << j for j in range(num_vars - 1, -1, -1)
                if not (fixed >> j) & 1]
        return AffineSubspace(num_vars, self.pos_mask, free)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DnfTerm):
            return NotImplemented
        return (self.pos_mask, self.neg_mask) == (other.pos_mask,
                                                  other.neg_mask)

    def __hash__(self) -> int:
        return hash((self.pos_mask, self.neg_mask))

    def __repr__(self) -> str:
        return f"DnfTerm({list(self.literals)})"


class DnfFormula:
    """An immutable DNF formula (disjunction of terms)."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int,
                 terms: Iterable[Sequence[int] | DnfTerm]) -> None:
        if num_vars < 0:
            raise InvalidParameterError("num_vars must be non-negative")
        self.num_vars = num_vars
        normalised: List[DnfTerm] = []
        for term in terms:
            if not isinstance(term, DnfTerm):
                term = DnfTerm(term)
            if term.max_var() > num_vars:
                raise InvalidParameterError(
                    f"term {term} exceeds num_vars={num_vars}")
            normalised.append(term)
        self.terms: Tuple[DnfTerm, ...] = tuple(normalised)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, assignment: int) -> bool:
        """True iff some term is satisfied."""
        return any(t.evaluate(assignment) for t in self.terms)

    def solutions_bruteforce(self) -> Iterator[int]:
        """Yield every satisfying assignment (intended for small tests)."""
        for x in range(1 << self.num_vars):
            if self.evaluate(x):
                yield x

    def solution_set(self, cap: Optional[int] = None) -> set:
        """The exact union of the per-term subcubes.

        Enumerates term subspaces instead of the full cube, so it is usable
        whenever the union itself is small even if ``2**num_vars`` is not.
        ``cap`` guards against accidentally materialising a huge union.
        """
        out: set = set()
        for term in self.terms:
            space = term.solution_space(self.num_vars)
            if space is None:
                continue
            for x in space:
                out.add(x)
                if cap is not None and len(out) > cap:
                    raise InvalidParameterError(
                        f"solution set exceeds cap={cap}")
        return out

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def num_terms(self) -> int:
        """The paper's ``k`` -- the size of the DNF representation."""
        return len(self.terms)

    def disjoin(self, other: "DnfFormula") -> "DnfFormula":
        """Disjunction (stream union) of two DNF formulas."""
        return DnfFormula(max(self.num_vars, other.num_vars),
                          self.terms + other.terms)

    @classmethod
    def singleton(cls, num_vars: int, element: int) -> "DnfFormula":
        """The single-term DNF whose only solution is ``element`` --
        how a plain stream item embeds into the DNF-set stream model."""
        if element >> num_vars:
            raise InvalidParameterError("element does not fit in num_vars")
        lits = [v if (element >> (v - 1)) & 1 else -v
                for v in range(1, num_vars + 1)]
        return cls(num_vars, [lits])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DnfFormula):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.terms))

    def __repr__(self) -> str:
        return (f"DnfFormula(num_vars={self.num_vars}, "
                f"num_terms={len(self.terms)})")
