"""Flat-array CDCL solver state shared by every propagation kernel.

:class:`SolverState` owns the preallocated numpy arrays that
:func:`repro.kernels.cdcl_loops.propagate` operates on -- per-variable
assignment/level/reason/phase vectors, the trail, a flat clause pool
(CSR-style ``start``/``len`` over one int32 literal array), and two
watch *arenas* (one flat pool per watch kind with per-literal /
per-variable ``start``/``len``/``cap`` triples; lists relocate-and-double
inside the pool as they grow).  The ``python`` kernel reads the arrays
through cached zero-copy :class:`memoryview`s (plain-int element access);
the ``numba`` kernel takes the numpy arrays directly, and the ``native``
kernel a cached ctypes array of their addresses.  Either way the
state is the single representation -- no conversion happens on kernel
switch, which is the point of the layout.

Growth is python-side and *semantically invisible*: the kernels return
``RESIZE_*`` sentinels with their position parked in ``regs`` and this
class doubles the exhausted pool; propagation order never depends on
pool sizing (see the layout contract in DESIGN.md, "Kernel registry").

Scalar bookkeeping that never enters the hot loop (activities, learnt
bookkeeping, trail level boundaries) stays in
:class:`repro.sat.solver.CdclSolver`.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as _np

from repro.kernels.cdcl_loops import NUM_REGS, REASON_NONE

#: Initial capacities; deliberately small enough that real workloads
#: exercise growth, and monkeypatchable in tests to force the mid-
#: propagation RESIZE/resume paths.
INITIAL_VARS = 64
INITIAL_CLAUSES = 128
INITIAL_CLAUSE_LITS = 1024
INITIAL_WATCH_POOL = 1024
INITIAL_XOR_ROWS = 32
INITIAL_XOR_VARS = 256
INITIAL_XWATCH_POOL = 256

#: Element types of the propagate arrays, in argument order: what the C
#: loop (``cdcl_loops.c``) reads through :meth:`SolverState.prop_args_native`.
NATIVE_DTYPES = ((_np.int64, _np.int8) + (_np.int32,) * 13 + (_np.int8,)
                 + (_np.int32,) * 6)


def _grow(arr, new_cap: int, fill: int):
    """Return ``arr`` grown to ``new_cap`` entries, new slots = ``fill``."""
    out = _np.full(new_cap, fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


class SolverState:
    """The flat-array solver state one :class:`CdclSolver` instance owns."""

    def __init__(self) -> None:
        vcap = INITIAL_VARS
        self.num_vars = 0
        self.regs = _np.zeros(NUM_REGS, dtype=_np.int64)
        # Per-variable state.
        self.assigns = _np.full(vcap, -1, dtype=_np.int8)
        self.level = _np.zeros(vcap, dtype=_np.int32)
        self.reason = _np.full(vcap, REASON_NONE, dtype=_np.int32)
        self.saved_phase = _np.zeros(vcap, dtype=_np.int8)
        self.trail = _np.zeros(vcap, dtype=_np.int32)
        # Clause pool (CSR layout over flat literals).
        self.num_clauses = 0
        self.lits_used = 0
        self.clause_lits = _np.zeros(INITIAL_CLAUSE_LITS, dtype=_np.int32)
        self.clause_start = _np.zeros(INITIAL_CLAUSES, dtype=_np.int32)
        self.clause_len = _np.zeros(INITIAL_CLAUSES, dtype=_np.int32)
        # Clause-watch arena (per internal literal).
        self.watch_pool = _np.zeros(INITIAL_WATCH_POOL, dtype=_np.int32)
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
        self._mv = None
        self._refresh_views()

    # -- views -----------------------------------------------------------

    def _refresh_views(self) -> None:
        """Rebuild the cached memoryviews after any array was replaced
        (and drop the argument tuple and pointer array built from them)."""
        self.mv_regs = memoryview(self.regs)
        self.mv_assigns = memoryview(self.assigns)
        self.mv_level = memoryview(self.level)
        self.mv_reason = memoryview(self.reason)
        self.mv_saved_phase = memoryview(self.saved_phase)
        self.mv_trail = memoryview(self.trail)
        self.mv_clause_lits = memoryview(self.clause_lits)
        self.mv_clause_start = memoryview(self.clause_start)
        self.mv_clause_len = memoryview(self.clause_len)
        self.mv_xor_vars = memoryview(self.xor_vars)
        self.mv_xor_start = memoryview(self.xor_start)
        self.mv_xor_len = memoryview(self.xor_len)
        self.mv_xor_rhs = memoryview(self.xor_rhs)
        self._mv = None
        self._native = None

    def prop_args_mv(self) -> tuple:
        """The :func:`~repro.kernels.cdcl_loops.propagate` argument tuple
        as zero-copy memoryviews (the ``python`` kernel's calling
        convention)."""
        if self._mv is None:
            self._mv = tuple(memoryview(a) for a in self._prop_arrays())
        return self._mv

    def prop_args_np(self) -> tuple:
        """The propagate argument tuple as the numpy arrays themselves
        (the ``numba`` kernel's calling convention)."""
        return self._prop_arrays()

    def prop_args_native(self):
        """The propagate arguments as one ctypes array of 24 slots: the
        22 array addresses, then the ``watch_pool`` and ``xwatch_pool``
        lengths (the ``native`` kernel's calling convention)."""
        if self._native is None:
            import ctypes
            arrays = self._prop_arrays()
            for a, dtype in zip(arrays, NATIVE_DTYPES, strict=True):
                if a.dtype != dtype or not a.flags.c_contiguous:
                    raise TypeError(f"propagate array of {a.dtype} is not "
                                    f"a contiguous {_np.dtype(dtype)}")
            self._native = (ctypes.c_void_p * (len(arrays) + 2))(
                *[a.ctypes.data for a in arrays],
                self.watch_pool.shape[0], self.xwatch_pool.shape[0])
        return self._native

    def _prop_arrays(self) -> tuple:
        return (self.regs, self.assigns, self.level, self.reason,
                self.trail,
                self.clause_lits, self.clause_start, self.clause_len,
                self.watch_pool, self.watch_start, self.watch_len,
                self.watch_cap,
                self.xor_vars, self.xor_start, self.xor_len, self.xor_rhs,
                self.xor_w0, self.xor_w1,
                self.xwatch_pool, self.xwatch_start, self.xwatch_len,
                self.xwatch_cap)

    def take_props(self) -> int:
        """Drain the kernel's propagation-pop counter (for SolverStats)."""
        from repro.kernels.cdcl_loops import R_PROPS
        count = int(self.regs[R_PROPS])
        self.regs[R_PROPS] = 0
        return count

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
            self.level = _grow(self.level, vcap, 0)
            self.reason = _grow(self.reason, vcap, REASON_NONE)
            self.saved_phase = _grow(self.saved_phase, vcap, 0)
            self.trail = _grow(self.trail, vcap, 0)
            self.watch_start = _grow(self.watch_start, 2 * vcap, 0)
            self.watch_len = _grow(self.watch_len, 2 * vcap, 0)
            self.watch_cap = _grow(self.watch_cap, 2 * vcap, 0)
            self.xwatch_start = _grow(self.xwatch_start, vcap, 0)
            self.xwatch_len = _grow(self.xwatch_len, vcap, 0)
            self.xwatch_cap = _grow(self.xwatch_cap, vcap, 0)
            self._refresh_views()
        self.num_vars = num_vars

    def add_clause_lits(self, lits: Sequence[int]) -> int:
        """Append a clause to the pool; returns its clause index."""
        ci = self.num_clauses
        if ci >= self.clause_start.shape[0]:
            new_cap = 2 * self.clause_start.shape[0]
            self.clause_start = _grow(self.clause_start, new_cap, 0)
            self.clause_len = _grow(self.clause_len, new_cap, 0)
            self._refresh_views()
        need = self.lits_used + len(lits)
        if need > self.clause_lits.shape[0]:
            new_cap = self.clause_lits.shape[0]
            while new_cap < need:
                new_cap *= 2
            self.clause_lits = _grow(self.clause_lits, new_cap, 0)
            self._refresh_views()
        self.clause_start[ci] = self.lits_used
        self.clause_len[ci] = len(lits)
        self.clause_lits[self.lits_used: need] = lits
        self.lits_used = need
        self.num_clauses = ci + 1
        return ci

    def clause_list(self, ci: int) -> List[int]:
        """The clause's literals as a plain list (reason materialisation)."""
        start = int(self.clause_start[ci])
        length = int(self.clause_len[ci])
        lits = self.mv_clause_lits
        return [lits[start + k] for k in range(length)]

    def add_xor_row(self, variables: Sequence[int], rhs: int) -> int:
        """Append a parity row (ascending variable list); returns its
        row index.  Watches start unset (``-1``)."""
        row = self.num_xors
        if row >= self.xor_start.shape[0]:
            new_cap = 2 * self.xor_start.shape[0]
            self.xor_start = _grow(self.xor_start, new_cap, 0)
            self.xor_len = _grow(self.xor_len, new_cap, 0)
            self.xor_rhs = _grow(self.xor_rhs, new_cap, 0)
            self.xor_w0 = _grow(self.xor_w0, new_cap, -1)
            self.xor_w1 = _grow(self.xor_w1, new_cap, -1)
            self._refresh_views()
        need = self.xvars_used + len(variables)
        if need > self.xor_vars.shape[0]:
            new_cap = self.xor_vars.shape[0]
            while new_cap < need:
                new_cap *= 2
            self.xor_vars = _grow(self.xor_vars, new_cap, 0)
            self._refresh_views()
        self.xor_start[row] = self.xvars_used
        self.xor_len[row] = len(variables)
        self.xor_vars[self.xvars_used: need] = variables
        self.xvars_used = need
        self.xor_rhs[row] = rhs & 1
        self.num_xors = row + 1
        return row

    def xor_var_list(self, row: int) -> List[int]:
        """The row's variables, ascending (reason materialisation)."""
        start = int(self.xor_start[row])
        length = int(self.xor_len[row])
        xv = self.mv_xor_vars
        return [xv[start + k] for k in range(length)]

    # -- watch arenas ----------------------------------------------------

    def grow_watch_pool(self, min_size: int = 0) -> None:
        """Double the clause-watch arena (RESIZE_WATCH handler)."""
        new_size = max(2 * self.watch_pool.shape[0], min_size)
        self.watch_pool = _grow(self.watch_pool, new_size, 0)
        self._refresh_views()

    def grow_xwatch_pool(self, min_size: int = 0) -> None:
        """Double the XOR-watcher arena (RESIZE_XWATCH handler)."""
        new_size = max(2 * self.xwatch_pool.shape[0], min_size)
        self.xwatch_pool = _grow(self.xwatch_pool, new_size, 0)
        self._refresh_views()

    def watch_add(self, lit: int, ci: int) -> None:
        """Append clause ``ci`` to ``lit``'s watch list (python-side
        sites: clause construction and learnt attachment).  Same
        relocate-and-double discipline as the in-kernel append."""
        from repro.kernels.cdcl_loops import R_WUSED
        length = int(self.watch_len[lit])
        if length >= int(self.watch_cap[lit]):
            newcap = max(4, 2 * int(self.watch_cap[lit]))
            used = int(self.regs[R_WUSED])
            if used + newcap > self.watch_pool.shape[0]:
                self.grow_watch_pool(used + newcap)
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
        from repro.kernels.cdcl_loops import R_XWUSED
        length = int(self.xwatch_len[var])
        if length >= int(self.xwatch_cap[var]):
            newcap = max(4, 2 * int(self.xwatch_cap[var]))
            used = int(self.regs[R_XWUSED])
            if used + newcap > self.xwatch_pool.shape[0]:
                self.grow_xwatch_pool(used + newcap)
            start = int(self.xwatch_start[var])
            self.xwatch_pool[used: used + length] = \
                self.xwatch_pool[start: start + length]
            self.xwatch_start[var] = used
            self.xwatch_cap[var] = newcap
            self.regs[R_XWUSED] = used + newcap
        self.xwatch_pool[int(self.xwatch_start[var]) + length] = row
        self.xwatch_len[var] = length + 1

    def filter_watches(self, drop: Set[int]) -> None:
        """Rewrite every watch list without the dropped clause indices,
        preserving per-list order (learnt-DB reduction).  Rebuilding also
        compacts relocation garbage out of the arena."""
        from repro.kernels.cdcl_loops import R_WUSED
        num_lits = 2 * self.num_vars
        kept: List[List[int]] = []
        total = 0
        for lit in range(num_lits):
            start = int(self.watch_start[lit])
            entries = [int(self.watch_pool[start + k])
                       for k in range(int(self.watch_len[lit]))]
            entries = [ci for ci in entries if ci not in drop]
            kept.append(entries)
            cap = max(4, 1 << (len(entries) - 1).bit_length()) \
                if entries else 0
            total += cap
        if total > self.watch_pool.shape[0]:
            self.grow_watch_pool(total)
        cursor = 0
        for lit in range(num_lits):
            entries = kept[lit]
            cap = max(4, 1 << (len(entries) - 1).bit_length()) \
                if entries else 0
            self.watch_start[lit] = cursor
            self.watch_len[lit] = len(entries)
            self.watch_cap[lit] = cap
            if entries:
                self.watch_pool[cursor: cursor + len(entries)] = entries
            cursor += cap
        self.regs[R_WUSED] = cursor
