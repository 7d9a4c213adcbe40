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

The propagation inner loop -- where solve time is actually spent -- runs
through a pluggable compute kernel (:mod:`repro.kernels`): solver state
lives in the preallocated flat numpy arrays of
:class:`repro.kernels.state.SolverState` (CSR-style clause pool, arena
watch lists, int64 register file), and :meth:`_propagate` hands those
arrays to the process-wide kernel (``python`` memoryview loop by
default, njit-compiled when ``numba`` is selected and installed).  A
solver resolves the kernel once, at construction.  Everything outside
the hot loop -- conflict analysis, activities, restarts, the learnt
database -- stays in ordinary python, reading the same arrays.
Conflicts and reasons cross the boundary as integer codes (``>= 0`` a
clause index, ``-row - 2`` an XOR row, ``-1`` none); reason *clauses*
are materialised lazily from the codes during conflict analysis, which
is safe because a reason's literals are all still assigned, unchanged,
whenever the reason is inspected.

Literals cross the public API in DIMACS convention (positive/negative
integers); internally literal ``2*(v-1)`` is "variable v true" and
``2*(v-1)+1`` is "variable v false".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import InvalidParameterError
from repro.formulas.cnf import CnfFormula
from repro.formulas.xor_constraint import XorConstraint
from repro.kernels import get_kernel, resolve_kernel_name
from repro.kernels.cdcl_loops import (
    NO_CONFLICT,
    R_DLEVEL,
    R_QHEAD,
    R_TRAIL_LEN,
    R_XQHEAD,
    REASON_NONE,
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


def _luby(i: int) -> int:
    """The i-th element (1-indexed) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:  # Smallest k with 2^k - 1 >= i.
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1  # Recurse into the repeated prefix.


class CdclSolver:
    """Incremental CDCL solver; see module docstring for feature set."""

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
        #: The resolved kernel name this solver propagates with.
        self.kernel_name = resolve_kernel_name()
        self._kernel = get_kernel(self.kernel_name)
        self._state = SolverState()
        self.num_vars = 0
        self.ok = True
        self._activity: List[float] = []
        self._trail_lim: List[int] = []
        self._var_inc = 1.0
        self._assumed: List[int] = []
        # Learned-clause database: clause indices in insertion order plus
        # per-clause activities keyed by clause index.
        self._learnts: List[int] = []
        self._learnt_activity: Dict[int, float] = {}
        self._cla_inc = 1.0
        self._max_learnts = self.LEARNT_BASE
        self.stats = SolverStats()
        for _ in range(num_vars):
            self.new_var()

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
        self.num_vars += 1
        self._state.ensure_vars(self.num_vars)
        self._activity.append(0.0)
        return self.num_vars

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable table to at least ``num_vars``."""
        while self.num_vars < num_vars:
            self.new_var()

    def add_clause(self, dimacs_lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the solver became trivially UNSAT.

        May be called between :meth:`solve` invocations (blocking clauses);
        the next solve restarts propagation from the root level.
        """
        if not self.ok:
            return False
        self._backtrack_to(0)
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
            if self._propagate() is not None:
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
        self._backtrack_to(0)
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
            if self._eval_xor_row(row) is not None \
                    or self._propagate() is not None:
                self.ok = False
                return False
            return True
        # Root-level propagation opportunity.
        if self._propagate() is not None:
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
        self.stats.solve_calls += 1
        if not self.ok:
            return False
        # Root-level fixpoint is an invariant: add_clause/add_xor propagate
        # eagerly, and _backtrack_to clamps the queue heads, so no root
        # re-propagation is needed here (long-lived incremental sessions
        # accumulate large root trails).
        self._backtrack_to(0)
        if self._propagate() is not None:
            self.ok = False
            return False
        assumed = [_lit_internal(d) for d in assumptions]
        for lit in assumed:
            if (lit >> 1) >= self.num_vars:
                raise InvalidParameterError("assumption on unknown variable")
        self._assumed = assumed
        return self._search()

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
        self.stats.solve_calls += 1
        if not self.ok:
            return False
        decisions = self._decision_internal_lits()
        if not decisions:
            # The model was forced at root level: blocking it empties the
            # solution space outright.
            self.ok = False
            return False
        clause = [lit ^ 1 for lit in decisions]
        if len(clause) == 1:
            self._backtrack_to(0)
            self._enqueue(clause[0], REASON_NONE)
            if self._propagate() is not None:
                self.ok = False
                return False
            return self._search()
        # Order by decision level, deepest first: backtracking to the
        # second-deepest level leaves exactly clause[0] unassigned, so the
        # new clause is unit and redirects the search.
        level = self._state.mv_level
        clause.sort(key=lambda lit: level[lit >> 1], reverse=True)
        ci = self._state.add_clause_lits(clause)
        self._state.watch_add(clause[0], ci)
        self._state.watch_add(clause[1], ci)
        self._backtrack_to(level[clause[1] >> 1])
        self._enqueue(clause[0], ci)
        return self._search()

    def _search(self) -> bool:
        """The CDCL main loop under ``self._assumed``."""
        assumed = self._assumed
        conflicts_this_restart = 0
        restart_number = 1
        limit = self.RESTART_BASE * _luby(restart_number)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_restart += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return False
                learnt, backtrack_level = self._analyze(conflict)
                self._backtrack_to(backtrack_level)
                self._attach_learnt(learnt)
                self._decay_activity()
                if len(self._learnts) > self._max_learnts:
                    self._reduce_learnts()
                continue

            if conflicts_this_restart >= limit:
                self.stats.restarts += 1
                conflicts_this_restart = 0
                restart_number += 1
                limit = self.RESTART_BASE * _luby(restart_number)
                self._backtrack_to(0)
                continue

            next_lit = None
            while self._decision_level() < len(assumed):
                p = assumed[self._decision_level()]
                value = self._lit_value(p)
                if value == 1:
                    self._new_level()  # Dummy level.
                elif value == 0:
                    return False  # Conflicting assumption.
                else:
                    next_lit = p
                    break
            if next_lit is None:
                next_lit = self._pick_branch_literal()
                if next_lit is None:
                    return True  # All variables assigned: model found.
                self.stats.decisions += 1
            self._new_level()
            self._enqueue(next_lit, REASON_NONE)

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

    def _decision_internal_lits(self) -> List[int]:
        """Internal literals of the current decisions (assumptions
        included), deduplicated -- dummy levels for already-satisfied
        assumptions repeat the following decision."""
        trail = self._state.mv_trail
        trail_len = int(self._state.regs[R_TRAIL_LEN])
        out = []
        seen = set()
        for boundary in self._trail_lim:
            if boundary >= trail_len:
                break
            lit = trail[boundary]
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        return out

    def decision_literals(self) -> List[int]:
        """The DIMACS decision literals (assumptions included) of the
        current assignment.

        Directly after a successful :meth:`solve`, negating these yields a
        *generalised* blocking clause: propagation is sound, so every
        solution extending the decisions equals the current model, and the
        short clause excludes exactly that model.
        """
        return [_lit_dimacs(lit) for lit in self._decision_internal_lits()]

    # ------------------------------------------------------------------
    # Internals: assignment & propagation
    # ------------------------------------------------------------------

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_level(self) -> None:
        """Open a decision level (keeps the kernel's level register in
        sync for in-kernel enqueues)."""
        st = self._state
        self._trail_lim.append(int(st.regs[R_TRAIL_LEN]))
        st.regs[R_DLEVEL] = len(self._trail_lim)

    def _lit_value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned."""
        a = self._state.mv_assigns[lit >> 1]
        if a == _UNASSIGNED:
            return _UNASSIGNED
        return a ^ (lit & 1)

    def _enqueue(self, lit: int, reason_code: int) -> None:
        st = self._state
        v = lit >> 1
        st.mv_assigns[v] = 1 ^ (lit & 1)
        st.mv_level[v] = len(self._trail_lim)
        st.mv_reason[v] = reason_code
        st.mv_trail[int(st.regs[R_TRAIL_LEN])] = lit
        st.regs[R_TRAIL_LEN] += 1

    def _propagate(self) -> Optional[int]:
        """Run clause and XOR propagation to fixpoint via the kernel.

        Returns a conflict code (clause index, or ``-row - 2`` for an XOR
        row whose literals are all false) or None.
        """
        code = self._kernel.propagate(self._state)
        self.stats.propagations += self._state.take_props()
        return None if code == NO_CONFLICT else code

    def _eval_xor_row(self, row: int) -> Optional[int]:
        """Evaluate one parity row known to have <= 1 unassigned variable
        (the root-level entry point used by :meth:`add_xor`; during search
        the kernel performs this evaluation in-loop).

        Returns a conflict code, or None after enqueueing the implied
        literal (unit case) / verifying the row (determined case).
        """
        st = self._state
        assigns = st.mv_assigns
        parity = 0
        unassigned_var = -1
        for u in st.xor_var_list(row):
            a = assigns[u]
            if a == _UNASSIGNED:
                if unassigned_var >= 0:
                    return None  # A watcher raced ahead; row not unit.
                unassigned_var = u
            else:
                parity ^= a
        rhs = int(st.xor_rhs[row])
        if unassigned_var < 0:
            if parity != rhs:
                return -row - 2
            return None
        implied_value = parity ^ rhs
        lit = 2 * unassigned_var + (0 if implied_value else 1)
        self._enqueue(lit, -row - 2)
        return None

    def _code_lits(self, code: int,
                   implied_var: Optional[int] = None) -> List[int]:
        """Materialise the literals behind a conflict/reason code.

        Clause codes read the pool slice (position 0 holds the implied
        literal while the clause is locked as a reason).  XOR codes
        rebuild the lazily-materialised reason clause -- the implied
        literal first, then the currently-false literals of the row's
        other variables in ascending variable order; every one of those
        variables is still assigned exactly as it was at implication
        time, so this equals the clause an eager implementation would
        have stored.
        """
        if code >= 0:
            return self._state.clause_list(code)
        row = -code - 2
        assigns = self._state.mv_assigns
        out = []
        for u in self._state.xor_var_list(row):
            if u == implied_var:
                continue
            # Variable u is assigned; the literal matching *the opposite*
            # of its value is false right now.
            out.append(2 * u + (1 if assigns[u] == 1 else 0))
        if implied_var is not None:
            lit = 2 * implied_var + (0 if assigns[implied_var] == 1 else 1)
            out.insert(0, lit)
        return out

    # ------------------------------------------------------------------
    # Internals: conflict analysis & learning
    # ------------------------------------------------------------------

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP analysis; returns (learnt clause, backtrack level)."""
        st = self._state
        trail = st.mv_trail
        level = st.mv_level
        reason = st.mv_reason
        current_level = self._decision_level()
        learnt: List[int] = [0]  # Slot 0 for the asserting literal.
        seen = set()
        counter = 0
        p = None
        reason_code = conflict
        trail_idx = int(st.regs[R_TRAIL_LEN]) - 1

        while True:
            self._bump_clause(reason_code)
            reason_lits = self._code_lits(
                reason_code, None if p is None else p >> 1)
            start = 0 if p is None else 1
            for q in reason_lits[start:]:
                v = q >> 1
                if v in seen or level[v] == 0:
                    continue
                seen.add(v)
                self._bump_activity(v)
                if level[v] == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            while (trail[trail_idx] >> 1) not in seen:
                trail_idx -= 1
            p = trail[trail_idx]
            trail_idx -= 1
            v = p >> 1
            seen.discard(v)
            counter -= 1
            if counter == 0:
                break
            reason_code = reason[v]
            assert reason_code != REASON_NONE, "UIP literal must be implied"

        learnt[0] = p ^ 1
        if len(learnt) == 1:
            return learnt, 0
        # Backtrack to the second-highest decision level in the clause and
        # place that literal in the second watch position.
        max_idx = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_idx] >> 1]:
                max_idx = i
        learnt[1], learnt[max_idx] = learnt[max_idx], learnt[1]
        return learnt, int(level[learnt[1] >> 1])

    def _attach_learnt(self, learnt: List[int]) -> None:
        self.stats.learned_clauses += 1
        if len(learnt) == 1:
            self._enqueue(learnt[0], REASON_NONE)
            return
        ci = self._state.add_clause_lits(learnt)
        self._state.watch_add(learnt[0], ci)
        self._state.watch_add(learnt[1], ci)
        self._learnts.append(ci)
        self._learnt_activity[ci] = self._cla_inc
        self._enqueue(learnt[0], ci)

    def _bump_clause(self, code: int) -> None:
        if code < 0:
            return  # XOR rows are not subject to deletion.
        activity = self._learnt_activity.get(code)
        if activity is None:
            return  # Original clause: not subject to deletion.
        activity += self._cla_inc
        self._learnt_activity[code] = activity
        if activity > self.ACTIVITY_RESCALE:
            scale = 1.0 / self.ACTIVITY_RESCALE
            for k in self._learnt_activity:
                self._learnt_activity[k] *= scale
            self._cla_inc *= scale

    def _reduce_learnts(self) -> None:
        """Drop the less-active half of the learned-clause database.

        Keeps binary clauses and clauses currently locked as reasons; the
        budget then grows geometrically so reductions stay amortised.  This
        is what keeps long-lived incremental sessions (one solver across a
        whole level search) from drowning in stale watch lists.  Dropped
        clauses become unreachable pool garbage (propagation only reaches
        clauses through watch lists); the arena rebuild also compacts
        relocation slack out of the watch pool.
        """
        self.stats.db_reductions += 1
        st = self._state
        reason = st.mv_reason
        locked = {reason[v] for v in range(self.num_vars)
                  if reason[v] >= 0}
        by_activity = sorted(
            self._learnts, key=lambda ci: self._learnt_activity[ci])
        drop = set()
        budget = len(self._learnts) // 2
        clause_len = st.mv_clause_len
        for ci in by_activity:
            if len(drop) >= budget:
                break
            if clause_len[ci] <= 2 or ci in locked:
                continue
            drop.add(ci)
        if drop:
            self.stats.deleted_clauses += len(drop)
            self._learnts = [ci for ci in self._learnts if ci not in drop]
            st.filter_watches(drop)
            for ci in drop:
                del self._learnt_activity[ci]
        self._max_learnts = int(self._max_learnts * self.LEARNT_GROWTH)

    def _backtrack_to(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        st = self._state
        trail = st.mv_trail
        assigns = st.mv_assigns
        reason = st.mv_reason
        saved_phase = st.mv_saved_phase
        boundary = self._trail_lim[level]
        for idx in range(int(st.regs[R_TRAIL_LEN]) - 1, boundary - 1, -1):
            v = trail[idx] >> 1
            saved_phase[v] = assigns[v]
            assigns[v] = _UNASSIGNED
            reason[v] = REASON_NONE
        st.regs[R_TRAIL_LEN] = boundary
        del self._trail_lim[level:]
        st.regs[R_DLEVEL] = level
        if st.regs[R_QHEAD] > boundary:
            st.regs[R_QHEAD] = boundary
        if st.regs[R_XQHEAD] > boundary:
            st.regs[R_XQHEAD] = boundary

    # ------------------------------------------------------------------
    # Internals: heuristics
    # ------------------------------------------------------------------

    def _pick_branch_literal(self) -> Optional[int]:
        assigns = self._state.mv_assigns
        activity = self._activity
        best_var = -1
        best_activity = -1.0
        for v in range(self.num_vars):
            if assigns[v] == _UNASSIGNED and activity[v] > best_activity:
                best_var = v
                best_activity = activity[v]
        if best_var < 0:
            return None
        phase = self._state.mv_saved_phase[best_var]
        return 2 * best_var + (0 if phase == 1 else 1)

    def _bump_activity(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > self.ACTIVITY_RESCALE:
            scale = 1.0 / self.ACTIVITY_RESCALE
            for u in range(self.num_vars):
                self._activity[u] *= scale
            self._var_inc *= scale

    def _decay_activity(self) -> None:
        self._var_inc /= self.ACTIVITY_DECAY
        self._cla_inc /= self.CLAUSE_DECAY
