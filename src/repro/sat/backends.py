"""The NP-oracle backend registry: pluggable solvers behind one facade.

The paper measures every #CNF algorithm in NP-oracle calls; *which* solver
answers those calls is an engineering choice, and in practice it dominates
counter performance ("Model Counting in the Wild", Shaw & Meel 2024).  This
module makes that choice a configuration flag instead of a rewrite: every
:class:`repro.sat.oracle.NpOracle` resolves its solving substrate from a
named registry, so ``NpOracle(formula, backend="bruteforce")`` -- or
``--oracle bruteforce`` on the CLI -- swaps the engine under *all* oracle
consumers (BoundedSAT, the incremental cell search, FindMin's prefix
search, FindMaxRange, the sampler) without touching any of them.

A backend is a factory producing objects that speak the
:class:`SolverBackend` protocol -- the exact solver surface
:class:`repro.sat.oracle.OracleSession` consumes:

``solve(assumptions)`` / ``model_int()``
    incremental satisfiability under assumption literals, with model
    retrieval on success;
``resume_after_block()``
    permanently exclude the current model and continue the same search
    (enumeration-by-continuation);
``add_clause(lits)`` / ``add_xor(mask, rhs)`` / ``add_xor_constraint(xc)``
    permanent constraints (blocking clauses, hash rows);
``new_var()``
    fresh auxiliary variables (hash output bits ``y_r == h(x)_r``);
``decision_literals()``
    a set of literals whose negation-clause excludes exactly the current
    model (backends without a decision trail return the full model).

Registered backends:

* ``cdcl`` (default) -- the in-tree CDCL solver with native XOR
  propagation (:class:`repro.sat.solver.CdclSolver`).
* ``bruteforce`` -- exhaustive ascending-order scan over the base
  variables with hash outputs derived algebraically; shares no code with
  the CDCL solver, so contract-test disagreements localise bugs.
* ``pysat`` -- an adapter over the optional ``python-sat`` package
  (registered only when it is importable); XOR rows go through the
  chunked Tseitin encoding since stock CDCL solvers lack parity
  reasoning.

Adding a backend is ``register_backend(name, factory)`` -- see DESIGN.md,
section "Registries".  :data:`BACKENDS` is a
:class:`repro.common.registry.Registry` with no override and no
environment variable: ``NpOracle(backend=...)`` / ``--oracle`` name a
backend explicitly, else :data:`DEFAULT_BACKEND` runs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, Sequence

from repro.common.errors import InvalidParameterError
from repro.common.registry import Registry
from repro.formulas.cnf import CnfFormula
from repro.formulas.xor_constraint import XorConstraint
from repro.sat.solver import CdclSolver

#: The backend used when ``NpOracle`` is given none explicitly.
DEFAULT_BACKEND = "cdcl"


class SolverBackend(Protocol):
    """The solver surface an :class:`~repro.sat.oracle.OracleSession`
    consumes; see the module docstring for the contract."""

    num_vars: int

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Satisfiable under ``assumptions``?  Keeps the model if so."""

    def resume_after_block(self) -> bool:
        """Exclude the current model for good; find the next one."""

    def model_int(self) -> int:
        """The current model as a bitmask (bit ``v - 1`` is ``v``)."""

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a permanent clause; False once trivially UNSAT."""

    def add_xor(self, mask: int, rhs: int) -> bool:
        """Add the permanent parity row ``parity(x & mask) == rhs``."""

    def add_xor_constraint(self, xc: XorConstraint) -> bool:
        """Add an :class:`XorConstraint` as a parity row."""

    def new_var(self) -> int:
        """Allocate a fresh auxiliary variable; returns its id."""

    def decision_literals(self) -> List[int]:
        """Literals whose negation-clause excludes exactly the model."""


#: Entry factories map formula + fixed XOR side constraints to a solver.
#: A backend with a kernelised inner loop (cdcl) runs the process-wide
#: compute kernel (:mod:`repro.kernels`); none takes a kernel argument.
BACKENDS = Registry("oracle backend", DEFAULT_BACKEND)

register_backend = BACKENDS.register
backend_names = BACKENDS.names
backend_info = BACKENDS.info
has_backend = BACKENDS.has


def create_solver(name: Optional[str], formula: CnfFormula,
                  xors: Iterable[XorConstraint] = ()) -> SolverBackend:
    """Instantiate the named backend (``None`` -> the default) for a
    formula plus fixed XOR side constraints."""
    return BACKENDS.get(name).factory(formula, xors)


# ----------------------------------------------------------------------
# bruteforce: exhaustive scan, zero shared code with the CDCL solver
# ----------------------------------------------------------------------

class BruteForceSolver:
    """Exhaustive-scan backend for small instances.

    Enumerates assignments of the *base* variables (those present at
    construction, plus any later variable no XOR row defines) in ascending
    numeric order; auxiliary hash-output variables introduced through
    ``new_var`` + ``add_xor`` are not scanned but *derived* -- an XOR row
    whose mask contains exactly one undefined auxiliary variable is
    treated as that variable's definition ``y = rhs ^ parity(rest)``, which
    is precisely how ``OracleSession.new_output_var`` introduces them.  A
    hash attachment therefore costs nothing: the scan space stays
    ``2^{base}`` however many output rows are riding along.

    ``resume_after_block`` appends a full-width blocking clause (so the
    model stays excluded for every later ``solve``) and continues the
    ascending scan past the blocked model.
    """

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = num_vars
        self._base_vars = num_vars
        self._clauses: List[List[int]] = []
        self._xors: List[tuple] = []          # Residual (mask, rhs) checks.
        self._defs: List[tuple] = []          # (var, input_mask, rhs), in order.
        self._defined: set = set()
        self._free_aux: List[int] = []        # new_var()s no XOR defines (yet).
        self._model: Optional[int] = None
        self._assumptions: tuple = ()
        self._cursor = 0
        self.ok = True

    @classmethod
    def from_cnf(cls, cnf: CnfFormula,
                 xors: Iterable[XorConstraint] = ()) -> "BruteForceSolver":
        """Load ``cnf`` plus fixed XOR rows."""
        solver = cls(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        for xc in xors:
            solver.add_xor_constraint(xc)
        return solver

    # -- construction ---------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh auxiliary variable; returns its id."""
        self.num_vars += 1
        self._free_aux.append(self.num_vars)
        return self.num_vars

    def _grow(self, var: int) -> None:
        """Variables introduced implicitly by a clause or XOR row join
        the scanned free set (exactly CDCL's ensure_vars semantics --
        they must not be silently pinned to 0)."""
        while self.num_vars < var:
            self.num_vars += 1
            self._free_aux.append(self.num_vars)

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a permanent clause; False once trivially UNSAT."""
        lits = list(lits)
        for lit in lits:
            if lit == 0:
                raise InvalidParameterError("literal 0 is not allowed")
            self._grow(abs(lit))
        self._clauses.append(lits)
        if not lits:
            self.ok = False
        return self.ok

    def add_xor(self, mask: int, rhs: int) -> bool:
        """Add the permanent parity row ``parity(x & mask) == rhs``."""
        self._grow(mask.bit_length())
        rhs &= 1
        undefined_aux = [v for v in self._free_aux if (mask >> (v - 1)) & 1]
        if len(undefined_aux) == 1:
            # The row defines its sole fresh variable algebraically.
            y = undefined_aux[0]
            self._defs.append((y, mask & ~(1 << (y - 1)), rhs))
            self._defined.add(y)
            self._free_aux.remove(y)
        else:
            if mask == 0 and rhs == 1:
                self.ok = False
            self._xors.append((mask, rhs))
        return self.ok

    def add_xor_constraint(self, xc: XorConstraint) -> bool:
        """Add an :class:`XorConstraint` as a parity row."""
        return self.add_xor(xc.mask, xc.rhs)

    # -- evaluation -----------------------------------------------------

    def _extend(self, x: int) -> int:
        """Derive the defined auxiliary bits on top of a scan assignment."""
        for var, input_mask, rhs in self._defs:
            parity = bin(x & input_mask).count("1") & 1
            if parity ^ rhs:
                x |= 1 << (var - 1)
            else:
                x &= ~(1 << (var - 1))
        return x

    def _satisfies(self, x: int) -> bool:
        for lit in self._assumptions:
            bit = (x >> (abs(lit) - 1)) & 1
            if (lit > 0) != bool(bit):
                return False
        for mask, rhs in self._xors:
            if (bin(x & mask).count("1") & 1) != rhs:
                return False
        for clause in self._clauses:
            for lit in clause:
                bit = (x >> (abs(lit) - 1)) & 1
                if (lit > 0) == bool(bit):
                    break
            else:
                return False
        return True

    def _scan_bits(self) -> List[int]:
        """Scanned bit positions: base variables plus undefined aux vars."""
        return (list(range(self._base_vars))
                + [v - 1 for v in self._free_aux])

    def _scan(self, start: int) -> bool:
        if not self.ok:
            self._model = None
            return False
        positions = self._scan_bits()
        for index in range(start, 1 << len(positions)):
            x = 0
            for j, pos in enumerate(positions):
                if (index >> j) & 1:
                    x |= 1 << pos
            x = self._extend(x)
            if self._satisfies(x):
                self._model = x
                self._cursor = index + 1
                return True
        self._model = None
        return False

    # -- solving --------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Satisfiable under ``assumptions``?  Keeps the model if so."""
        self._assumptions = tuple(assumptions)
        return self._scan(0)

    def resume_after_block(self) -> bool:
        """Exclude the current model for good; find the next one."""
        if self._model is None:
            raise InvalidParameterError("no model to continue from")
        self.add_clause([-v if (self._model >> (v - 1)) & 1 else v
                         for v in range(1, self.num_vars + 1)])
        return self._scan(self._cursor)

    def model_int(self) -> int:
        """The current model as a bitmask (bit ``v - 1`` is ``v``)."""
        if self._model is None:
            raise InvalidParameterError("no model available")
        return self._model

    def decision_literals(self) -> List[int]:
        """Full-width model literals: their negation-clause excludes
        exactly the current model (no decision trail to shorten it)."""
        model = self.model_int()
        return [v if (model >> (v - 1)) & 1 else -v
                for v in range(1, self.num_vars + 1)]


# ----------------------------------------------------------------------
# pysat: optional adapter over the python-sat package
# ----------------------------------------------------------------------

try:  # pragma: no cover - exercised only where python-sat is installed
    from pysat.solvers import Solver as _PySatSolver
except ImportError:  # the container image does not bake python-sat in
    _PySatSolver = None


class PySatSolver:
    """Adapter registered as ``pysat`` when ``python-sat`` is importable.

    XOR rows are lowered through the chunked Tseitin encoding
    (:func:`repro.sat.encode_xor.xor_to_cnf_clauses`) because stock CDCL
    solvers have no parity engine.  One variable space is shared between
    oracle-*visible* variables (the formula's, plus everything handed out
    by ``new_var``) and the encoding's auxiliaries: both allocate from a
    single high-water cursor, and only the visible set participates in
    ``model_int`` / ``decision_literals``.  Auxiliaries are functionally
    determined by the visible assignment, so blocking over the visible
    literals still excludes exactly one model.
    """

    XOR_CHUNK = 4

    def __init__(self, num_vars: int = 0,
                 solver_name: str = "minisat22") -> None:
        if _PySatSolver is None:  # pragma: no cover - env-specific
            raise InvalidParameterError(
                "the pysat backend requires the python-sat package")
        self.num_vars = num_vars
        self._solver = _PySatSolver(name=solver_name)
        self._visible: List[int] = list(range(1, num_vars + 1))
        self._top = num_vars                  # Highest allocated variable.
        self._model: Optional[int] = None
        self._assumptions: tuple = ()
        self.ok = True

    @classmethod
    def from_cnf(cls, cnf: CnfFormula,
                 xors: Iterable[XorConstraint] = ()) -> "PySatSolver":
        """Load ``cnf`` plus fixed XOR rows."""
        solver = cls(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        for xc in xors:
            solver.add_xor_constraint(xc)
        return solver

    def _grow_visible(self, var: int) -> None:
        """Make implicitly introduced variable ids visible.

        Only ids *above* the allocation cursor are genuinely new (ids in
        ``(num_vars, _top]`` belong to Tseitin auxiliaries and must stay
        out of models and blocking clauses); referencing an auxiliary id
        directly is a caller error this adapter cannot repair.
        """
        if var <= self._top:
            return  # Already allocated (visible or auxiliary).
        for v in range(self._top + 1, var + 1):
            self._visible.append(v)
        self._top = var
        self.num_vars = var

    def new_var(self) -> int:
        """Allocate a fresh auxiliary variable; returns its id."""
        self._top += 1
        self.num_vars = self._top
        self._visible.append(self._top)
        return self._top

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a permanent clause; False once trivially UNSAT."""
        lits = list(lits)
        for lit in lits:
            if lit == 0:
                raise InvalidParameterError("literal 0 is not allowed")
            self._grow_visible(abs(lit))
        if not lits:
            self.ok = False
        self._solver.add_clause(lits)
        return self.ok

    def add_xor(self, mask: int, rhs: int) -> bool:
        """Add the permanent parity row ``parity(x & mask) == rhs``."""
        from repro.sat.encode_xor import xor_to_cnf_clauses
        self._grow_visible(mask.bit_length())
        variables = [v + 1 for v in range(mask.bit_length())
                     if (mask >> v) & 1]
        clauses, self._top = xor_to_cnf_clauses(
            variables, rhs & 1, self._top + 1, chunk_size=self.XOR_CHUNK)
        self._top -= 1  # xor_to_cnf_clauses returns the next *unused* var.
        for clause in clauses:
            if not clause:
                self.ok = False
            self._solver.add_clause(clause)
        return self.ok

    def add_xor_constraint(self, xc: XorConstraint) -> bool:
        """Add an :class:`XorConstraint` as a parity row."""
        return self.add_xor(xc.mask, xc.rhs)

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Satisfiable under ``assumptions``?  Keeps the model if so."""
        self._assumptions = tuple(assumptions)
        return self._finish(self._solver.solve(
            assumptions=list(self._assumptions)))

    def _finish(self, sat: bool) -> bool:
        if not sat:
            self._model = None
            return False
        visible = set(self._visible)
        model = 0
        for lit in self._solver.get_model() or []:
            if lit > 0 and lit in visible:
                model |= 1 << (lit - 1)
        self._model = model
        return True

    def resume_after_block(self) -> bool:
        """Exclude the current model for good; find the next one."""
        if self._model is None:
            raise InvalidParameterError("no model to continue from")
        self._solver.add_clause(
            [-lit for lit in self.decision_literals()])
        return self._finish(self._solver.solve(
            assumptions=list(self._assumptions)))

    def model_int(self) -> int:
        """The current model as a bitmask (bit ``v - 1`` is ``v``)."""
        if self._model is None:
            raise InvalidParameterError("no model available")
        return self._model

    def decision_literals(self) -> List[int]:
        """Model literals over the oracle-visible variables (Tseitin
        auxiliaries are determined, so this excludes exactly one
        model)."""
        model = self.model_int()
        return [v if (model >> (v - 1)) & 1 else -v
                for v in self._visible]

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self._solver.delete()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------

register_backend(
    "cdcl", CdclSolver.from_cnf,
    "in-tree CDCL solver with native XOR propagation")
register_backend(
    "bruteforce", BruteForceSolver.from_cnf,
    "exhaustive ascending scan (small instances only); independent "
    "reference implementation")
if _PySatSolver is not None:  # pragma: no cover - optional dependency
    register_backend(
        "pysat", PySatSolver.from_cnf,
        "python-sat adapter (XOR rows Tseitin-encoded)")
