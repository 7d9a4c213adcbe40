"""The NP-oracle facade used by every counting algorithm.

The paper measures #CNF algorithms in *number of NP-oracle calls*; this
module makes that metric first-class.  :class:`NpOracle` wraps the CDCL
solver, counts every satisfiability decision, and hands out incremental
:class:`OracleSession` contexts (formula + fixed XOR side constraints +
blocking clauses + assumption-driven queries).

For the Estimation-based algorithm the oracle must answer queries that
constrain a *non-linear* (s-wise polynomial) hash of the solution --
``exists x |= phi with TrailZero(h(x)) >= t`` (Proposition 3).  For linear
hashes :class:`NpOracle` answers through XOR constraints; for polynomial
hashes :class:`EnumerationOracle` answers the same queries by witness
enumeration, preserving the query-count semantics (see DESIGN.md, section
"Oracle substitution table").

Repeated BoundedSAT probes against nested cells of one hash should not go
through one-shot sessions: :meth:`NpOracle.cell_search` opens the
incremental :class:`~repro.core.cell_search.CellSearchEngine`, which
shares a single session across all levels (DESIGN.md, section
"Incremental cell search").

Which solver answers the oracle's queries is a *registry* choice, not a
hard-wired import: ``NpOracle(formula, backend="bruteforce")`` resolves
its solving substrate by name from :mod:`repro.sat.backends`, so every
oracle consumer -- BoundedSAT, cell search, FindMin, FindMaxRange, the
sampler -- rides whichever backend the caller (or the CLI's ``--oracle``
flag) selected.  :func:`oracle_for` is the one front door that picks the
right oracle *kind* for a formula and hash class.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from repro.common.errors import InvalidParameterError
from repro.formulas.cnf import CnfFormula
from repro.formulas.dnf import DnfFormula
from repro.formulas.xor_constraint import XorConstraint
from repro.hashing.base import LinearHash
from repro.sat.backends import DEFAULT_BACKEND, SolverBackend, create_solver


class TrailZeroOracle(Protocol):
    """The query interface FindMaxRange needs (Proposition 3's oracle):
    both :class:`NpOracle` and :class:`EnumerationOracle` satisfy it.

    Not to be confused with the *solver* plugin interface of the backend
    registry -- a new ``--oracle`` backend implements
    :class:`repro.sat.backends.SolverBackend`, not this protocol.
    """

    calls: int

    def exists_with_trailzero_at_least(self, h, t: int) -> bool:
        """Is there a solution ``z`` with ``TrailZero(h(z)) >= t``?"""
        ...


class OracleSession:
    """An incremental solving context drawing calls from a parent oracle.

    A session owns a solver loaded with the oracle's formula plus
    session-specific XOR constraints; callers may add blocking clauses,
    attach hash output variables, and issue assumption-based queries.
    Every :meth:`solve` is one NP-oracle call.
    """

    def __init__(self, oracle: "NpOracle",
                 xors: Iterable[XorConstraint] = ()) -> None:
        self._oracle = oracle
        self._solver: SolverBackend = oracle._new_solver(xors)
        self._model: Optional[int] = None

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """One NP-oracle call; remembers the model on success."""
        self._oracle.calls += 1
        sat = self._solver.solve(assumptions)
        self._model = self._solver.model_int() if sat else None
        return sat

    def next_model(self) -> bool:
        """Block the current model and continue the search in place (one
        NP-oracle call -- Proposition 1 charges enumeration per decision,
        however the solver implements it).

        Must directly follow a successful :meth:`solve` / `next_model`;
        the same assumptions stay in force.  Cheaper than a fresh
        :meth:`solve` because the descent is not restarted (see
        :meth:`CdclSolver.resume_after_block`).
        """
        if self._model is None:
            raise InvalidParameterError("no model to continue from")
        self._oracle.calls += 1
        sat = self._solver.resume_after_block()
        self._model = self._solver.model_int() if sat else None
        return sat

    def model_int(self) -> int:
        """The model of the last successful :meth:`solve`."""
        if self._model is None:
            raise InvalidParameterError("no model available")
        return self._model

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a permanent clause (e.g. lexicographic ordering constraints)."""
        self._solver.add_clause(lits)

    def add_xor_constraint(self, xc: XorConstraint) -> None:
        """Add a permanent XOR constraint."""
        self._solver.add_xor_constraint(xc)

    def block_model(self, model: int, num_vars: int) -> None:
        """Exclude one assignment over variables ``1..num_vars``
        (the blocking clause of solution enumeration)."""
        clause = [-v if (model >> (v - 1)) & 1 else v
                  for v in range(1, num_vars + 1)]
        self._solver.add_clause(clause)

    def block_current_model(self) -> None:
        """Exclude the model of the last successful :meth:`solve` via the
        *generalised* blocking clause over its decision literals only.

        Propagation soundness makes the short clause exclude exactly that
        one model (see :meth:`CdclSolver.decision_literals`), and shorter
        clauses keep long-lived enumeration sessions fast.  Must be called
        before the solver state changes (next solve / added clause).
        """
        if self._model is None:
            raise InvalidParameterError("no model available")
        decisions = self._solver.decision_literals()
        self._solver.add_clause([-d for d in decisions])

    def new_output_var(self, mask: int, offset: int) -> int:
        """Introduce a fresh variable ``y`` with ``y == parity(mask & x)
        xor offset`` (one hash output row)."""
        y = self._solver.new_var()
        self._solver.add_xor(mask | (1 << (y - 1)), offset)
        return y

    def attach_hash(self, h: LinearHash) -> List[int]:
        """Introduce output variables ``y_r == h(x)_r``.

        Returns the 1-indexed variable numbers ``[y_0, ..., y_{m-1}]``
        (row 0 first).  FindMin's prefix search then runs entirely on
        assumptions over these variables.  Callers that only ever assume a
        prefix (the cell-search engine) attach rows lazily through
        :meth:`new_output_var` instead.
        """
        return [self.new_output_var(h.rows[r], h.offsets[r])
                for r in range(h.out_bits)]


class NpOracle:
    """Call-counting NP oracle for a CNF formula.

    The paper measures #CNF algorithms in NP-oracle calls; ``.calls``
    is that metric, incremented on every satisfiability decision issued
    through any session of this oracle.

    Args:
        formula: the CNF formula all sessions solve against.
        backend: name of the solving substrate sessions are built on
            (see :mod:`repro.sat.backends`); ``None`` selects the
            registry default.  The *name* is stored, not the solver, so
            oracles stay cheap to build and picklable for the
            process-parallel repetition engine.
        kernel: name of the compute kernel (:mod:`repro.kernels`) the
            backend's propagation inner loop runs on; ``None`` follows
            the registry's override / ``REPRO_KERNEL`` / default
            resolution.  Stored by name for the same picklability
            reason as ``backend``.

    Raises:
        KeyError: an unregistered ``backend`` name (surfaced when the
            first session is opened).
    """

    def __init__(self, formula: CnfFormula, backend: Optional[str] = None,
                 kernel: Optional[str] = None) -> None:
        self.formula = formula
        #: Name of the registered solver backend sessions resolve.
        self.backend = backend or DEFAULT_BACKEND
        #: Compute-kernel name handed to every session's solver.
        self.kernel = kernel
        #: Total satisfiability decisions issued through this oracle.
        self.calls = 0

    def _new_solver(self, xors: Iterable[XorConstraint] = ()) -> SolverBackend:
        """Instantiate this oracle's backend for one session."""
        return create_solver(self.backend, self.formula, xors,
                             kernel=self.kernel)

    def session(self, xors: Iterable[XorConstraint] = ()) -> OracleSession:
        """Open an incremental context (formula + fixed XOR constraints)."""
        return OracleSession(self, xors)

    def cell_search(self, h: LinearHash, thresh: int, target: int = 0):
        """Open an incremental cell-search engine over this oracle: one
        persistent session whose level probes run on assumptions and whose
        enumerated models are cached across levels (Proposition 1's probes
        without per-probe solver rebuilds)."""
        from repro.core.cell_search import CellSearchEngine
        return CellSearchEngine(self.formula, h, thresh, self, target)

    def is_satisfiable(self, xors: Iterable[XorConstraint] = (),
                       assumptions: Sequence[int] = ()) -> bool:
        """One-shot satisfiability query (one call)."""
        return self.session(xors).solve(assumptions)

    def exists_with_trailzero_at_least(self, h, t: int) -> bool:
        """Proposition 3's oracle query, answerable for *linear* hashes by
        constraining the last ``t`` output rows to zero."""
        if not getattr(h, "is_linear", False):
            raise InvalidParameterError(
                "NpOracle answers trail-zero queries only for linear "
                "hashes; use EnumerationOracle for polynomial hashes")
        xors = [XorConstraint(mask, rhs)
                for mask, rhs in h.suffix_constraints(t)]
        return self.is_satisfiable(xors)

    def enumerate_models(self, xors: Iterable[XorConstraint] = (),
                         limit: Optional[int] = None) -> List[int]:
        """Enumerate models by blocking clauses, up to ``limit``.

        Uses ``len(models) + 1`` oracle calls when the space is exhausted
        (the final UNSAT certificate), matching Proposition 1's
        ``O(p)``-calls accounting for BoundedSAT.
        """
        if limit is not None and limit <= 0:
            return []
        session = self.session(xors)
        models: List[int] = []
        mask = (1 << self.formula.num_vars) - 1
        sat = session.solve()
        while sat and (limit is None or len(models) < limit):
            models.append(session.model_int() & mask)
            if limit is not None and len(models) >= limit:
                break
            sat = session.next_model()
        return models


class EnumerationOracle:
    """Witness-enumeration oracle for hash-constrained queries.

    Holds the full solution set (computed once, *not* counted -- this is
    the simulation substitute documented in DESIGN.md, section "Oracle
    substitution table") and answers
    Proposition 3 queries for arbitrary hash functions, counting one call
    per query exactly like a real NP oracle would be charged.
    """

    def __init__(self, solutions: Iterable[int]) -> None:
        # Frozen so repetition workers can share one solution set without
        # a defensive copy per repetition (nothing ever mutates it).
        self.solutions: AbstractSet[int] = (
            solutions if isinstance(solutions, frozenset)
            else frozenset(solutions))
        self.calls = 0

    @classmethod
    def from_cnf(cls, formula: CnfFormula,
                 limit: Optional[int] = None,
                 backend: Optional[str] = None,
                 kernel: Optional[str] = None) -> "EnumerationOracle":
        """Enumerate a CNF's models (vectorised brute force when the
        variable count permits, else an uncounted solver loop on the
        named oracle backend and compute kernel)."""
        if formula.num_vars <= 24 and limit is None:
            from repro.core.exact import cnf_models_numpy
            return cls(cnf_models_numpy(formula))
        oracle = NpOracle(formula, backend=backend, kernel=kernel)
        models = oracle.enumerate_models(limit=limit)
        return cls(models)

    @classmethod
    def from_dnf(cls, formula: DnfFormula,
                 cap: Optional[int] = None) -> "EnumerationOracle":
        """Enumerate a DNF's models through the per-term subcubes."""
        return cls(formula.solution_set(cap=cap))

    def exists_with_trailzero_at_least(self, h, t: int) -> bool:
        """One (counted) oracle query."""
        self.calls += 1
        return any(h.trail_zeros(z) >= t for z in self.solutions)


def oracle_for(formula: Union[CnfFormula, DnfFormula],
               backend: Optional[str] = None,
               polynomial_hashes: bool = False,
               kernel: Optional[str] = None
               ) -> "Union[NpOracle, EnumerationOracle]":
    """The one front door for building an oracle over a formula.

    Every oracle consumer that lets callers choose a backend goes
    through here, so the registry governs them uniformly.

    Args:
        formula: the CNF or DNF formula to answer queries about.
        backend: solver backend name for NP-oracle sessions and
            solver-backed enumeration (registry default when ``None``).
        polynomial_hashes: ``True`` when queries will constrain s-wise
            *polynomial* hashes, which no XOR encoding can express.
        kernel: compute-kernel name (:mod:`repro.kernels`) for the
            backend's propagation loop (resolution default when
            ``None``).

    Returns:
        A call-counting :class:`NpOracle` for CNF with linear hashes;
        the documented :class:`EnumerationOracle` substitute for every
        DNF (whose FindMaxRange has no known polynomial algorithm) and
        for polynomial hashes (enumeration itself rides the named
        backend for large CNFs).

    Raises:
        KeyError: an unregistered ``backend`` name (on first use).
    """
    if isinstance(formula, DnfFormula):
        return EnumerationOracle.from_dnf(formula)
    if polynomial_hashes:
        return EnumerationOracle.from_cnf(formula, backend=backend,
                                          kernel=kernel)
    return NpOracle(formula, backend=backend, kernel=kernel)
