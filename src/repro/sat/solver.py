"""A CDCL SAT solver over CNF clauses plus native XOR constraints.

The design follows MiniSat's architecture, trimmed to what the counting
algorithms need and extended with a parity engine:

* two-watched-literal clause propagation;
* first-UIP conflict analysis with clause learning;
* VSIDS-style variable activities (linear scan -- instance sizes in this
  repository are tens of variables, where a heap costs more than it saves);
* Luby-sequence restarts and phase saving;
* incremental solving under assumptions (used by FindMin's prefix search);
* XOR constraints propagated natively by parity bookkeeping with lazily
  materialised reason clauses, so hash constraints never get expanded to
  CNF (the "native XOR support" the paper highlights as essential to
  practical ApproxMC).

The whole search runs in a pluggable compute kernel
(:mod:`repro.kernels`): solver state lives in the preallocated flat
numpy arrays of :class:`repro.kernels.state.SolverState` (CSR-style
clause pool, arena watch lists, int64 and float64 register files), and
:meth:`CdclSolver.solve` / :meth:`CdclSolver.resume_after_block` are one
kernel ``search`` call each.  The search itself is written once, in
:mod:`repro.kernels.cdcl_loops`: the default ``native`` kernel runs its
C translation, ``python`` interprets it over memoryviews, and ``numba``
njit-compiles it.  A solver resolves the kernel once, at construction.
This class keeps the public API: clause and XOR construction (which
propagates at the root through the kernel's ``propagate``), model and
decision readout, and :class:`SolverStats`, read from the registers.

Literals cross the public API in DIMACS convention (positive/negative
integers); internally literal ``2*(v-1)`` is "variable v true" and
``2*(v-1)+1`` is "variable v false".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.errors import InvalidParameterError
from repro.formulas.cnf import CnfFormula
from repro.formulas.xor_constraint import XorConstraint
from repro.kernels import get_kernel, resolve_kernel_name
from repro.kernels.cdcl_loops import (
    NO_CONFLICT,
    R_CONFLICTS,
    R_DB_REDUCTIONS,
    R_DECISIONS,
    R_DELETED,
    R_DLEVEL,
    R_LEARNED,
    R_OK,
    R_PROPS,
    R_RESTARTS,
    R_SOLVE_CALLS,
    R_TRAIL_LEN,
    REASON_NONE,
    SEARCH_RESUME,
    SEARCH_ROOT,
    SEARCH_SOLVE,
    enqueue,
)
from repro.kernels.state import SolverState

_UNASSIGNED = -1


def _lit_internal(dimacs_lit: int) -> int:
    if dimacs_lit == 0:
        raise InvalidParameterError("literal 0 is not allowed")
    v = abs(dimacs_lit) - 1
    return 2 * v + (0 if dimacs_lit > 0 else 1)


def _lit_dimacs(internal_lit: int) -> int:
    v = (internal_lit >> 1) + 1
    return v if (internal_lit & 1) == 0 else -v


@dataclass
class SolverStats:
    """Counters exposed for the benchmark harness."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    db_reductions: int = 0
    solve_calls: int = 0


#: Register of each :class:`SolverStats` field.
_STAT_REGS = (("decisions", R_DECISIONS), ("propagations", R_PROPS),
              ("conflicts", R_CONFLICTS), ("restarts", R_RESTARTS),
              ("learned_clauses", R_LEARNED),
              ("deleted_clauses", R_DELETED),
              ("db_reductions", R_DB_REDUCTIONS),
              ("solve_calls", R_SOLVE_CALLS))


class CdclSolver:
    """Incremental CDCL solver; see module docstring for feature set.

    The tunables below are copied into the solver state at construction,
    so patching them on the class affects solvers built afterwards,
    under every kernel.
    """

    RESTART_BASE = 100
    ACTIVITY_DECAY = 0.95
    ACTIVITY_RESCALE = 1e100
    CLAUSE_DECAY = 0.999
    #: Learned-clause budget before a DB reduction, and its growth factor.
    #: Long-lived solvers (the incremental cell-search engine keeps one per
    #: repetition) would otherwise accumulate unbounded watch lists.
    LEARNT_BASE = 400
    LEARNT_GROWTH = 1.2

    def __init__(self, num_vars: int = 0) -> None:
        #: The resolved kernel name this solver searches with.
        self.kernel_name = resolve_kernel_name()
        self._kernel = get_kernel(self.kernel_name)
        self._state = SolverState()
        self._state.configure(
            self.RESTART_BASE, self.LEARNT_BASE, self.LEARNT_GROWTH,
            self.ACTIVITY_DECAY, self.CLAUSE_DECAY, self.ACTIVITY_RESCALE)
        self.num_vars = 0
        self.ensure_vars(num_vars)

    @property
    def ok(self) -> bool:
        """False once the formula is unsatisfiable outright."""
        return self._state.mv_regs[R_OK] != 0

    @ok.setter
    def ok(self, value: bool) -> None:
        self._state.mv_regs[R_OK] = 1 if value else 0

    @property
    def stats(self) -> SolverStats:
        """A snapshot of the search counters."""
        regs = self._state.mv_regs
        return SolverStats(**{name: regs[r] for name, r in _STAT_REGS})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_cnf(cls, cnf: CnfFormula,
                 xors: Iterable[XorConstraint] = ()) -> "CdclSolver":
        """Build a solver loaded with a CNF formula and XOR constraints."""
        solver = cls(cnf.num_vars)
        for clause in cnf.clauses:
            solver.add_clause(clause)
        for xc in xors:
            solver.add_xor_constraint(xc)
        return solver

    def new_var(self) -> int:
        """Add a fresh variable; returns its 1-indexed number."""
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable table to at least ``num_vars``."""
        if num_vars > self.num_vars:
            self._state.ensure_vars(num_vars)
            self.num_vars = num_vars

    def add_clause(self, dimacs_lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the solver became trivially UNSAT.

        May be called between :meth:`solve` invocations (blocking clauses);
        the next solve restarts propagation from the root level.
        """
        if not self.ok:
            return False
        self._backtrack_to_root()
        lits: List[int] = []
        seen: Dict[int, int] = {}
        for d in dimacs_lits:
            self.ensure_vars(abs(d))
            lit = _lit_internal(d)
            v = lit >> 1
            if v in seen:
                if seen[v] != lit:
                    return True  # Tautology: v or not-v.
                continue
            seen[v] = lit
            lits.append(lit)
        # Drop root-level-false literals; detect already-satisfied clauses.
        filtered = []
        for lit in lits:
            value = self._lit_value(lit)
            if value == 1:
                return True
            if value == 0:
                continue  # False at root level: cannot help.
            filtered.append(lit)
        if not filtered:
            self.ok = False
            return False
        if len(filtered) == 1:
            self._enqueue(filtered[0], REASON_NONE)
            if self._propagate_root():
                self.ok = False
                return False
            return True
        ci = self._state.add_clause_lits(filtered)
        self._state.watch_add(filtered[0], ci)
        self._state.watch_add(filtered[1], ci)
        return True

    def add_xor(self, mask: int, rhs: int) -> bool:
        """Add the parity constraint ``XOR of vars in mask == rhs``."""
        if not self.ok:
            return False
        self._backtrack_to_root()
        rhs &= 1
        if mask == 0:
            if rhs == 1:
                self.ok = False
                return False
            return True
        self.ensure_vars(mask.bit_length())
        variables = []
        m = mask
        while m:
            variables.append((m & -m).bit_length() - 1)
            m &= m - 1
        row = self._state.add_xor_row(variables, rhs)
        assigns = self._state.mv_assigns
        unassigned = [v for v in variables if assigns[v] == _UNASSIGNED]
        assigned = [v for v in variables if assigns[v] != _UNASSIGNED]
        watch = (unassigned + assigned)[:2]
        # A row only needs re-evaluation when a *watched* variable is
        # assigned and no unassigned replacement exists -- the same lazy
        # invariant as clause watching, applied to parity rows.  Rows
        # with < 2 variables are never registered: they are evaluated
        # outright below.
        if len(watch) == 2:
            self._state.xor_w0[row] = watch[0]
            self._state.xor_w1[row] = watch[1]
            self._state.xwatch_add(watch[0], row)
            self._state.xwatch_add(watch[1], row)
        if len(unassigned) <= 1:
            # Determined (or unit) already at root: evaluate right away.
            if not self._eval_xor_row(row) or self._propagate_root():
                self.ok = False
                return False
            return True
        # Root-level propagation opportunity.
        if self._propagate_root():
            self.ok = False
            return False
        return True

    def add_xor_constraint(self, xc: XorConstraint) -> bool:
        """Add an :class:`XorConstraint` (variable-mask convention)."""
        return self.add_xor(xc.mask, xc.rhs)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given DIMACS assumptions."""
        self._state.mv_regs[R_SOLVE_CALLS] += 1
        if not self.ok:
            return False
        assumed = [_lit_internal(d) for d in assumptions]
        for lit in assumed:
            if (lit >> 1) >= self.num_vars:
                raise InvalidParameterError("assumption on unknown variable")
        self._state.set_assumptions(assumed)
        return self._kernel.search(self._state, SEARCH_SOLVE) == 1

    def resume_after_block(self) -> bool:
        """Exclude the current model and continue the search *in place*.

        Must directly follow a successful :meth:`solve` (or a previous
        successful resume) with the trail untouched.  The current model is
        excluded via the generalised blocking clause over its decision
        literals; instead of restarting the descent, the search backtracks
        only to the level where that clause becomes unit and carries on --
        the enumeration-by-continuation that makes BoundedSAT's ``p``
        solutions cost far less than ``p`` full solves.  Returns True with
        the next model assigned, or False when the space (under the same
        assumptions) is exhausted.
        """
        self._state.mv_regs[R_SOLVE_CALLS] += 1
        if not self.ok:
            return False
        return self._kernel.search(self._state, SEARCH_RESUME) == 1

    def model_int(self) -> int:
        """The satisfying assignment as an integer (bit ``v-1`` = var ``v``).

        Only meaningful directly after :meth:`solve` returned True.
        """
        assigns = self._state.mv_assigns
        out = 0
        for v in range(self.num_vars):
            if assigns[v] == 1:
                out |= 1 << v
        return out

    def value_of(self, var: int) -> Optional[bool]:
        """Current value of a variable (None if unassigned)."""
        a = self._state.mv_assigns[var - 1]
        return None if a == _UNASSIGNED else bool(a)

    def decision_literals(self) -> List[int]:
        """The DIMACS decision literals (assumptions included) of the
        current assignment.

        Directly after a successful :meth:`solve`, negating these yields a
        *generalised* blocking clause: propagation is sound, so every
        solution extending the decisions equals the current model, and the
        short clause excludes exactly that model.  Dummy levels for
        already-satisfied assumptions repeat the following decision, so
        literals are deduplicated.
        """
        st = self._state
        trail = st.mv_trail
        trail_lim = st.mv_trail_lim
        trail_len = st.mv_regs[R_TRAIL_LEN]
        out = []
        seen = set()
        for d in range(st.mv_regs[R_DLEVEL]):
            boundary = trail_lim[d]
            if boundary >= trail_len:
                break
            lit = trail[boundary]
            if lit not in seen:
                seen.add(lit)
                out.append(_lit_dimacs(lit))
        return out

    # ------------------------------------------------------------------
    # Internals: root-level construction
    # ------------------------------------------------------------------

    def _backtrack_to_root(self) -> None:
        if self._state.mv_regs[R_DLEVEL] > 0:
            self._kernel.search(self._state, SEARCH_ROOT)

    def _lit_value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        a = self._state.mv_assigns[lit >> 1]
        if a == _UNASSIGNED:
            return _UNASSIGNED
        return a ^ (lit & 1)

    def _enqueue(self, lit: int, reason_code: int) -> None:
        st = self._state
        enqueue(st.mv_regs, st.mv_assigns, st.mv_level, st.mv_reason,
                st.mv_trail, lit, reason_code)

    def _propagate_root(self) -> bool:
        """Run root-level clause and XOR propagation to fixpoint through
        the kernel; True on a conflict."""
        return self._kernel.propagate(self._state) != NO_CONFLICT

    def _eval_xor_row(self, row: int) -> bool:
        """Evaluate one parity row known to have <= 1 unassigned variable
        (the root-level entry point used by :meth:`add_xor`; during search
        the kernel performs this evaluation in-loop).

        Returns False on a conflict, else True after enqueueing the
        implied literal (unit case) / verifying the row (determined case).
        """
        st = self._state
        assigns = st.mv_assigns
        parity = 0
        unassigned_var = -1
        for u in st.xor_var_list(row):
            a = assigns[u]
            if a == _UNASSIGNED:
                if unassigned_var >= 0:
                    return True  # A watcher raced ahead; row not unit.
                unassigned_var = u
            else:
                parity ^= a
        rhs = int(st.xor_rhs[row])
        if unassigned_var < 0:
            return parity == rhs
        implied_value = parity ^ rhs
        lit = 2 * unassigned_var + (0 if implied_value else 1)
        self._enqueue(lit, -row - 2)
        return True
