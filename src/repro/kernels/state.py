"""Flat-array CDCL solver state shared by every compute kernel.

:class:`SolverState` owns every array the search in
:mod:`repro.kernels.cdcl_loops` operates on: the ``regs``/``fregs``
register files (trail cursors, counters, tunables, ``SolverStats``),
per-variable assignment/level/reason/phase/activity vectors, the trail
and its level boundaries, the assumptions, a flat clause pool (CSR-style
``start``/``len`` over one int32 literal array, with per-clause learnt
activity and flags), the learnt list, two watch *arenas* (one flat pool
per watch kind with per-literal / per-variable ``start``/``len``/``cap``
triples; lists relocate-and-double inside the pool as they grow), and
the scratch buffers of conflict analysis, learnt sorting and the watch
rebuild.  The ``python`` kernel reads the arrays through cached
zero-copy :class:`memoryview`s (plain-int element access); the
``numba`` kernel takes the numpy arrays directly, and the ``native``
kernel a cached ctypes array of their addresses.  Either way the state
is the single representation -- no conversion happens on kernel switch,
which is the point of the layout.

Growth is python-side and *semantically invisible*: the kernels return
``RESIZE_*`` sentinels with their position parked in ``regs`` and
:meth:`SolverState.grow_for` doubles the exhausted pool; search order
never depends on pool sizing (see the layout contract in DESIGN.md,
"Compute-kernel registry").
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as _np

from repro.kernels.cdcl_loops import (
    F_CLA_DECAY,
    F_CLA_INC,
    F_LEARNT_GROWTH,
    F_RESCALE,
    F_VAR_DECAY,
    F_VAR_INC,
    NUM_FREGS,
    NUM_REGS,
    R_LITS_USED,
    R_MAX_LEARNTS,
    R_NUM_ASSUMPTIONS,
    R_NUM_CLAUSES,
    R_NUM_VARS,
    R_OK,
    R_RESTART_BASE,
    R_WUSED,
    R_XWUSED,
    REASON_NONE,
    RESIZE_CLAUSES,
    RESIZE_LITS,
    RESIZE_WATCH,
    RESIZE_XWATCH,
)

#: Initial capacities; deliberately small enough that real workloads
#: exercise growth, and monkeypatchable in tests to force the mid-
#: search RESIZE/resume paths.
INITIAL_VARS = 64
INITIAL_CLAUSES = 128
INITIAL_CLAUSE_LITS = 1024
INITIAL_WATCH_POOL = 1024
INITIAL_XOR_ROWS = 32
INITIAL_XOR_VARS = 256
INITIAL_XWATCH_POOL = 256
INITIAL_ASSUMPTIONS = 8

#: Number of :func:`~repro.kernels.cdcl_loops.propagate` arguments; they
#: lead the :func:`~repro.kernels.cdcl_loops.search` argument list.
NUM_PROP_ARGS = 22

#: Element types of the search arrays, in argument order: what the C
#: functions (``cdcl_loops.c``) read through :meth:`SolverState.args_native`.
NATIVE_DTYPES = (
    (_np.int64, _np.int8) + (_np.int32,) * 13 + (_np.int8,)
    + (_np.int32,) * 6
    + (_np.float64, _np.int8, _np.float64, _np.int32, _np.int32, _np.int8,
       _np.int32, _np.float64, _np.int8) + (_np.int32,) * 4)


def _grow(arr, new_cap: int, fill=0):
    """Return ``arr`` grown to ``new_cap`` entries, new slots = ``fill``."""
    out = _np.full(new_cap, fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class SolverState:
    """The flat-array solver state one :class:`CdclSolver` instance owns."""

    def __init__(self) -> None:
        vcap = INITIAL_VARS
        ccap = INITIAL_CLAUSES
        self.regs = _np.zeros(NUM_REGS, dtype=_np.int64)
        self.regs[R_OK] = 1
        self.fregs = _np.zeros(NUM_FREGS, dtype=_np.float64)
        self.fregs[F_VAR_INC] = 1.0
        self.fregs[F_CLA_INC] = 1.0
        # Per-variable state.
        self.assigns = _np.full(vcap, -1, dtype=_np.int8)
        self.level = _np.zeros(vcap, dtype=_np.int32)
        self.reason = _np.full(vcap, REASON_NONE, dtype=_np.int32)
        self.saved_phase = _np.zeros(vcap, dtype=_np.int8)
        self.activity = _np.zeros(vcap, dtype=_np.float64)
        self.trail = _np.zeros(vcap, dtype=_np.int32)
        self.seen = _np.zeros(vcap, dtype=_np.int8)
        self.learnt_buf = _np.zeros(vcap, dtype=_np.int32)
        # One level per decision plus at most one dummy level per
        # assumption: trail_lim holds vars + assumptions entries.
        self.assumptions = _np.zeros(INITIAL_ASSUMPTIONS, dtype=_np.int32)
        self.trail_lim = _np.zeros(vcap + INITIAL_ASSUMPTIONS,
                                   dtype=_np.int32)
        # Clause pool (CSR layout over flat literals) and learnt DB.
        self.clause_lits = _np.zeros(INITIAL_CLAUSE_LITS, dtype=_np.int32)
        self.clause_start = _np.zeros(ccap, dtype=_np.int32)
        self.clause_len = _np.zeros(ccap, dtype=_np.int32)
        self.clause_act = _np.zeros(ccap, dtype=_np.float64)
        self.clause_learnt = _np.zeros(ccap, dtype=_np.int8)
        self.learnts = _np.zeros(ccap, dtype=_np.int32)
        self.sort_buf = _np.zeros(ccap, dtype=_np.int32)
        self.sort_tmp = _np.zeros(ccap, dtype=_np.int32)
        # Clause-watch arena (per internal literal) and its rebuild buffer.
        self.watch_pool = _np.zeros(INITIAL_WATCH_POOL, dtype=_np.int32)
        self.watch_tmp = _np.zeros(INITIAL_WATCH_POOL, dtype=_np.int32)
        self.watch_start = _np.zeros(2 * vcap, dtype=_np.int32)
        self.watch_len = _np.zeros(2 * vcap, dtype=_np.int32)
        self.watch_cap = _np.zeros(2 * vcap, dtype=_np.int32)
        # XOR rows (CSR layout over flat ascending variable lists).
        self.num_xors = 0
        self.xvars_used = 0
        self.xor_vars = _np.zeros(INITIAL_XOR_VARS, dtype=_np.int32)
        self.xor_start = _np.zeros(INITIAL_XOR_ROWS, dtype=_np.int32)
        self.xor_len = _np.zeros(INITIAL_XOR_ROWS, dtype=_np.int32)
        self.xor_rhs = _np.zeros(INITIAL_XOR_ROWS, dtype=_np.int8)
        self.xor_w0 = _np.full(INITIAL_XOR_ROWS, -1, dtype=_np.int32)
        self.xor_w1 = _np.full(INITIAL_XOR_ROWS, -1, dtype=_np.int32)
        # XOR-watcher arena (per variable).
        self.xwatch_pool = _np.zeros(INITIAL_XWATCH_POOL, dtype=_np.int32)
        self.xwatch_start = _np.zeros(vcap, dtype=_np.int32)
        self.xwatch_len = _np.zeros(vcap, dtype=_np.int32)
        self.xwatch_cap = _np.zeros(vcap, dtype=_np.int32)
        self._native = None
        self._refresh_views()

    def configure(self, restart_base: int, learnt_base: int,
                  learnt_growth: float, var_decay: float,
                  clause_decay: float, rescale: float) -> None:
        """Copy the solver's tunables into the register files."""
        self.regs[R_RESTART_BASE] = restart_base
        self.regs[R_MAX_LEARNTS] = learnt_base
        self.fregs[F_LEARNT_GROWTH] = learnt_growth
        self.fregs[F_VAR_DECAY] = var_decay
        self.fregs[F_CLA_DECAY] = clause_decay
        self.fregs[F_RESCALE] = rescale

    @property
    def num_vars(self) -> int:
        """Variables in use (``regs[R_NUM_VARS]``)."""
        return int(self.regs[R_NUM_VARS])

    @property
    def num_clauses(self) -> int:
        """Clauses in the pool, learnt ones included."""
        return int(self.regs[R_NUM_CLAUSES])

    # -- views -----------------------------------------------------------

    def _refresh_views(self) -> None:
        """Rebuild the cached memoryviews after any array was replaced
        (and drop the argument tuple and pointer slots built from them)."""
        self.mv_regs = memoryview(self.regs)
        self.mv_assigns = memoryview(self.assigns)
        self.mv_level = memoryview(self.level)
        self.mv_reason = memoryview(self.reason)
        self.mv_trail = memoryview(self.trail)
        self.mv_trail_lim = memoryview(self.trail_lim)
        self.mv_xor_vars = memoryview(self.xor_vars)
        self._mv = None
        self._native_stale = True

    def _arrays(self) -> tuple:
        """The search arrays in argument order (the first
        :data:`NUM_PROP_ARGS` are propagate's)."""
        return (self.regs, self.assigns, self.level, self.reason,
                self.trail,
                self.clause_lits, self.clause_start, self.clause_len,
                self.watch_pool, self.watch_start, self.watch_len,
                self.watch_cap,
                self.xor_vars, self.xor_start, self.xor_len, self.xor_rhs,
                self.xor_w0, self.xor_w1,
                self.xwatch_pool, self.xwatch_start, self.xwatch_len,
                self.xwatch_cap,
                self.fregs, self.saved_phase, self.activity, self.trail_lim,
                self.assumptions, self.seen, self.learnt_buf,
                self.clause_act, self.clause_learnt, self.learnts,
                self.sort_buf, self.sort_tmp, self.watch_tmp)

    def args_mv(self) -> tuple:
        """The :func:`~repro.kernels.cdcl_loops.search` argument tuple as
        zero-copy memoryviews (the ``python`` kernel's calling
        convention); its first :data:`NUM_PROP_ARGS` entries are the
        :func:`~repro.kernels.cdcl_loops.propagate` arguments."""
        if self._mv is None:
            self._mv = tuple(memoryview(a) for a in self._arrays())
        return self._mv

    def args_np(self) -> tuple:
        """The search argument tuple as the numpy arrays themselves
        (the ``numba`` kernel's calling convention)."""
        return self._arrays()

    def args_native(self):
        """The search arguments as one ctypes array of 39 slots: the 22
        propagate array addresses, the ``watch_pool`` and ``xwatch_pool``
        lengths, the 13 further search array addresses, then the clause
        slot capacity and the ``clause_lits`` length (the ``native``
        kernel's calling convention; ``propagate`` reads the first 24).

        After a growth only the replaced arrays' slots are rewritten:
        reading an array's address costs microseconds, and solvers grow
        several times while a count loads and blocks clauses."""
        if self._native_stale:
            import ctypes
            arrays = self._arrays()
            if self._native is None:
                self._native = (ctypes.c_void_p * (len(arrays) + 4))()
                self._native_arrays = (None,) * len(arrays)
            slots = self._native
            for k, (a, old, dtype) in enumerate(
                    zip(arrays, self._native_arrays, NATIVE_DTYPES,
                        strict=True)):
                if a is old:
                    continue
                if a.dtype != dtype or not a.flags.c_contiguous:
                    raise TypeError(f"search array of {a.dtype} is not "
                                    f"a contiguous {_np.dtype(dtype)}")
                slots[k if k < NUM_PROP_ARGS else k + 2] = a.ctypes.data
            slots[NUM_PROP_ARGS] = self.watch_pool.shape[0]
            slots[NUM_PROP_ARGS + 1] = self.xwatch_pool.shape[0]
            slots[len(arrays) + 2] = self.clause_start.shape[0]
            slots[len(arrays) + 3] = self.clause_lits.shape[0]
            self._native_arrays = arrays
            self._native_stale = False
        return self._native

    # -- growth ----------------------------------------------------------

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the per-variable/per-literal arrays to hold ``num_vars``
        variables (new slots initialised unassigned/unwatched)."""
        if num_vars <= self.num_vars:
            return
        vcap = self.assigns.shape[0]
        if num_vars > vcap:
            while vcap < num_vars:
                vcap *= 2
            self.assigns = _grow(self.assigns, vcap, -1)
            self.level = _grow(self.level, vcap)
            self.reason = _grow(self.reason, vcap, REASON_NONE)
            self.saved_phase = _grow(self.saved_phase, vcap)
            self.activity = _grow(self.activity, vcap, 0.0)
            self.trail = _grow(self.trail, vcap)
            self.seen = _grow(self.seen, vcap)
            self.learnt_buf = _grow(self.learnt_buf, vcap)
            self.trail_lim = _grow(self.trail_lim,
                                   vcap + self.assumptions.shape[0])
            self.watch_start = _grow(self.watch_start, 2 * vcap)
            self.watch_len = _grow(self.watch_len, 2 * vcap)
            self.watch_cap = _grow(self.watch_cap, 2 * vcap)
            self.xwatch_start = _grow(self.xwatch_start, vcap)
            self.xwatch_len = _grow(self.xwatch_len, vcap)
            self.xwatch_cap = _grow(self.xwatch_cap, vcap)
            self._refresh_views()
        self.regs[R_NUM_VARS] = num_vars

    def set_assumptions(self, lits: Sequence[int]) -> None:
        """Install the internal assumption literals for the next search."""
        cap = self.assumptions.shape[0]
        if len(lits) > cap:
            while cap < len(lits):
                cap *= 2
            self.assumptions = _grow(self.assumptions, cap)
            self.trail_lim = _grow(self.trail_lim,
                                   self.assigns.shape[0] + cap)
            self._refresh_views()
        self.assumptions[: len(lits)] = lits
        self.regs[R_NUM_ASSUMPTIONS] = len(lits)

    def grow_clauses(self) -> None:
        """Double the per-clause arrays (RESIZE_CLAUSES handler)."""
        cap = 2 * self.clause_start.shape[0]
        for name in ("clause_start", "clause_len", "clause_act",
                     "clause_learnt", "learnts", "sort_buf", "sort_tmp"):
            setattr(self, name, _grow(getattr(self, name), cap))
        self._refresh_views()

    def grow_clause_lits(self) -> None:
        """Double the clause-pool literals (RESIZE_LITS handler)."""
        self.clause_lits = _grow(self.clause_lits,
                                 2 * self.clause_lits.shape[0])
        self._refresh_views()

    def grow_watch_pool(self) -> None:
        """Double the clause-watch arena (RESIZE_WATCH handler)."""
        size = 2 * self.watch_pool.shape[0]
        self.watch_pool = _grow(self.watch_pool, size)
        self.watch_tmp = _grow(self.watch_tmp, size)
        self._refresh_views()

    def grow_xwatch_pool(self) -> None:
        """Double the XOR-watcher arena (RESIZE_XWATCH handler)."""
        self.xwatch_pool = _grow(self.xwatch_pool,
                                 2 * self.xwatch_pool.shape[0])
        self._refresh_views()

    def grow_for(self, code: int) -> bool:
        """Grow the pool a ``RESIZE_*`` kernel return names and return
        True (the caller re-enters); False for any other code."""
        if code > RESIZE_WATCH:
            return False
        if code == RESIZE_WATCH:
            self.grow_watch_pool()
        elif code == RESIZE_XWATCH:
            self.grow_xwatch_pool()
        elif code == RESIZE_CLAUSES:
            self.grow_clauses()
        elif code == RESIZE_LITS:
            self.grow_clause_lits()
        else:
            raise ValueError(f"unknown kernel return code {code}")
        return True

    # -- python-side construction (root level) ---------------------------

    def add_clause_lits(self, lits: Sequence[int]) -> int:
        """Append an original clause to the pool; returns its index."""
        ci = self.num_clauses
        while ci >= self.clause_start.shape[0]:
            self.grow_clauses()
        used = int(self.regs[R_LITS_USED])
        need = used + len(lits)
        while need > self.clause_lits.shape[0]:
            self.grow_clause_lits()
        self.clause_start[ci] = used
        self.clause_len[ci] = len(lits)
        self.clause_lits[used: need] = lits
        self.regs[R_LITS_USED] = need
        self.regs[R_NUM_CLAUSES] = ci + 1
        return ci

    def add_xor_row(self, variables: Sequence[int], rhs: int) -> int:
        """Append a parity row (ascending variable list); returns its
        row index.  Watches start unset (``-1``)."""
        row = self.num_xors
        if row >= self.xor_start.shape[0]:
            new_cap = 2 * self.xor_start.shape[0]
            self.xor_start = _grow(self.xor_start, new_cap)
            self.xor_len = _grow(self.xor_len, new_cap)
            self.xor_rhs = _grow(self.xor_rhs, new_cap)
            self.xor_w0 = _grow(self.xor_w0, new_cap, -1)
            self.xor_w1 = _grow(self.xor_w1, new_cap, -1)
            self._refresh_views()
        need = self.xvars_used + len(variables)
        if need > self.xor_vars.shape[0]:
            new_cap = self.xor_vars.shape[0]
            while new_cap < need:
                new_cap *= 2
            self.xor_vars = _grow(self.xor_vars, new_cap)
            self._refresh_views()
        self.xor_start[row] = self.xvars_used
        self.xor_len[row] = len(variables)
        self.xor_vars[self.xvars_used: need] = variables
        self.xvars_used = need
        self.xor_rhs[row] = rhs & 1
        self.num_xors = row + 1
        return row

    def xor_var_list(self, row: int) -> List[int]:
        """The row's variables, ascending."""
        start = int(self.xor_start[row])
        length = int(self.xor_len[row])
        xv = self.mv_xor_vars
        return [xv[start + k] for k in range(length)]

    def watch_add(self, lit: int, ci: int) -> None:
        """Append clause ``ci`` to ``lit``'s watch list (python-side
        clause construction).  Same relocate-and-double discipline as
        :func:`~repro.kernels.cdcl_loops.watch_append`."""
        length = int(self.watch_len[lit])
        if length >= int(self.watch_cap[lit]):
            newcap = max(4, 2 * int(self.watch_cap[lit]))
            used = int(self.regs[R_WUSED])
            while used + newcap > self.watch_pool.shape[0]:
                self.grow_watch_pool()
            start = int(self.watch_start[lit])
            self.watch_pool[used: used + length] = \
                self.watch_pool[start: start + length]
            self.watch_start[lit] = used
            self.watch_cap[lit] = newcap
            self.regs[R_WUSED] = used + newcap
        self.watch_pool[int(self.watch_start[lit]) + length] = ci
        self.watch_len[lit] = length + 1

    def xwatch_add(self, var: int, row: int) -> None:
        """Append ``row`` to ``var``'s XOR-watcher list."""
        length = int(self.xwatch_len[var])
        if length >= int(self.xwatch_cap[var]):
            newcap = max(4, 2 * int(self.xwatch_cap[var]))
            used = int(self.regs[R_XWUSED])
            while used + newcap > self.xwatch_pool.shape[0]:
                self.grow_xwatch_pool()
            start = int(self.xwatch_start[var])
            self.xwatch_pool[used: used + length] = \
                self.xwatch_pool[start: start + length]
            self.xwatch_start[var] = used
            self.xwatch_cap[var] = newcap
            self.regs[R_XWUSED] = used + newcap
        self.xwatch_pool[int(self.xwatch_start[var]) + length] = row
        self.xwatch_len[var] = length + 1
