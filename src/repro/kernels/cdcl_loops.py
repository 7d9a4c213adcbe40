"""The CDCL solver's search over flat arrays, written once.

This module is the single source of truth for the whole CDCL search:
two-watched-literal clause propagation plus watched-variable XOR
propagation (:func:`propagate`), and around it decide, first-UIP
analysis, backjump, learnt attachment, VSIDS activities, Luby restarts,
learnt-database reduction and the blocking step of
``resume_after_block`` (:func:`search`).  The same function bodies run
three ways:

* the ``python`` kernel calls them on zero-copy ``memoryview``s over the
  :class:`repro.kernels.state.SolverState` numpy arrays (plain-int
  element access, no numpy scalar overhead);
* the ``numba`` kernel ``numba.njit(cache=True)``-compiles them and
  calls them on the numpy arrays directly;
* the ``native`` kernel runs ``cdcl_loops.c``, a line-for-line C
  translation of every function here.

The functions are therefore written in the numba-compatible subset of
python: flat-array indexing, integer and float arithmetic, ``while``/
``for``/``if`` -- no objects, lists, dicts, or exceptions.  That subset is
also the ``nogil=True`` contract: nothing allocates python objects or
calls back into the interpreter, so the compiled forms drop the GIL for
a whole solve (``nopython`` compilation itself guards the audit -- an
object-mode leak is a compile error, not a silent GIL-holding fallback).

Array-layout contract (see DESIGN.md, "Compute-kernel registry"):
literals are the solver's internal encoding (variable ``v`` true =
``2*v``, false = ``2*v + 1``); ``assigns`` holds -1/0/1 per variable;
watch lists live in a shared arena (``watch_pool`` + per-literal
``start``/``len``/``cap``) whose lists relocate-and-double in place.
Pool exhaustion is *semantically invisible*: before mutating anything at
an append site the code checks for room, and on exhaustion it parks its
exact position in ``regs`` and returns a ``RESIZE_*`` sentinel; the
caller grows the named pool and re-enters, and the code resumes as if
nothing happened.  :func:`propagate` parks mid-watch-list
(``R_PHASE``/``R_WIDX``/``R_XENQ``); :func:`search` parks its own phase
in ``R_SPHASE`` (a pending learnt clause waits, already analysed, in
``learnt_buf``).  Search order -- and therefore every golden-pinned
estimate -- is identical regardless of pool sizing.

Return protocol of :func:`propagate`: ``NO_CONFLICT``; a clause index
``>= 0`` (conflicting clause, all literals false); ``-row - 2`` for a
conflicting XOR row; or a ``RESIZE_*`` sentinel.  :func:`search` returns
``1`` (a model is assigned), ``0`` (no model; ``regs[R_OK]`` is cleared
when the formula itself became unsatisfiable) or a ``RESIZE_*`` sentinel.
"""

# Register indices into the int64 ``regs`` array.
R_TRAIL_LEN = 0   # Number of literals on the trail.
R_QHEAD = 1       # Clause-propagation cursor into the trail.
R_XQHEAD = 2      # XOR-propagation cursor into the trail.
R_DLEVEL = 3      # Current decision level (= number of trail_lim entries).
R_PROPS = 4       # Propagation pops (SolverStats.propagations).
R_WUSED = 5       # Clause-watch arena high-water mark.
R_XWUSED = 6      # XOR-watcher arena high-water mark.
R_PHASE = 7       # propagate resume phase: 0 none, 1 clause, 2 XOR inner.
R_WIDX = 8        # Saved inner watch-list index for a resume.
R_XENQ = 9        # Saved XOR 'enqueued' flag for a resume.
R_NUM_VARS = 10
R_NUM_CLAUSES = 11
R_LITS_USED = 12      # Clause-pool literal high-water mark.
R_NUM_LEARNTS = 13    # Live learnt clauses (prefix of ``learnts``).
R_MAX_LEARNTS = 14    # Learnt budget before the next DB reduction.
R_NUM_ASSUMPTIONS = 15
R_OK = 16             # 0 once the formula is unsatisfiable at the root.
R_SPHASE = 17         # search entry mode / resume phase (SEARCH_*, S_*).
R_RESTART_CONFLICTS = 18  # Conflicts since the last restart.
R_RESTART_NUMBER = 19     # 1-based index into the Luby sequence.
R_LEARNT_LEN = 20         # Length of the clause waiting in learnt_buf.
R_BACKTRACK_LEVEL = 21    # Its backjump level.
R_RESTART_BASE = 22       # Tunable: conflicts per Luby unit.
R_DECISIONS = 23          # SolverStats counters from here on.
R_CONFLICTS = 24
R_RESTARTS = 25
R_LEARNED = 26
R_DELETED = 27
R_DB_REDUCTIONS = 28
R_SOLVE_CALLS = 29
NUM_REGS = 30

# Indices into the float64 ``fregs`` array.
F_VAR_INC = 0       # Current variable-activity bump.
F_CLA_INC = 1       # Current learnt-clause-activity bump.
F_VAR_DECAY = 2     # Tunable: ACTIVITY_DECAY.
F_CLA_DECAY = 3     # Tunable: CLAUSE_DECAY.
F_RESCALE = 4       # Tunable: ACTIVITY_RESCALE.
F_LEARNT_GROWTH = 5  # Tunable: LEARNT_GROWTH.
NUM_FREGS = 6

#: ``search`` entry modes (written to ``regs[R_SPHASE]`` by the caller).
SEARCH_ROOT = 1     # Backtrack to the root level and return 0.
SEARCH_SOLVE = 2    # Backtrack, propagate at the root, search.
SEARCH_RESUME = 3   # Block the current model's decisions, search on.
# Internal resume phases.
S_ROOT_PROPAGATE = 4  # Root propagation pending, then a fresh search.
S_LOOP = 5            # Inside the main loop.
S_ATTACH = 6          # Analysed conflict waiting to be attached.

#: Return sentinels.  XOR conflict rows are ``-row - 2``, so the resize
#: sentinels sit far below any realistic row count; every sentinel is
#: ``<= RESIZE_WATCH``.
NO_CONFLICT = -1
RESIZE_WATCH = -1000000000
RESIZE_XWATCH = -1000000001
RESIZE_CLAUSES = -1000000002  # Clause slots (start/len/act/learnt flags).
RESIZE_LITS = -1000000003     # Clause-pool literals.

#: ``reason`` array codes: ``-1`` none, ``>= 0`` clause index,
#: ``-row - 2`` an XOR row (same encoding as conflict returns).
REASON_NONE = -1

#: ``clause_learnt`` flags.
CLAUSE_ORIGINAL = 0
CLAUSE_LEARNT = 1
CLAUSE_DELETED = 2


def propagate(regs, assigns, level, reason, trail,
              clause_lits, clause_start, clause_len,
              watch_pool, watch_start, watch_len, watch_cap,
              xor_vars, xor_start, xor_len, xor_rhs, xor_w0, xor_w1,
              xwatch_pool, xwatch_start, xwatch_len, xwatch_cap):
    """Run clause and XOR propagation to fixpoint over flat arrays.

    Returns a conflict/resize code per the module docstring.  Mutates
    ``assigns``/``level``/``reason``/``trail``/``regs`` and the watch
    structures exactly as the historical object-based loop did.
    """
    phase = int(regs[R_PHASE])
    regs[R_PHASE] = 0
    enqueued = False
    if phase == 2:
        enqueued = regs[R_XENQ] != 0

    while True:
        if phase != 2:
            # ---- clause propagation to fixpoint --------------------
            while True:
                if phase == 1:
                    p = int(trail[regs[R_QHEAD] - 1])
                    i = int(regs[R_WIDX])
                    phase = 0
                else:
                    if regs[R_QHEAD] >= regs[R_TRAIL_LEN]:
                        break
                    p = int(trail[regs[R_QHEAD]])
                    regs[R_QHEAD] += 1
                    regs[R_PROPS] += 1
                    i = 0
                false_lit = p ^ 1
                while i < watch_len[false_lit]:
                    ci = int(watch_pool[watch_start[false_lit] + i])
                    cs = int(clause_start[ci])
                    cl = int(clause_len[ci])
                    # Normalise: watched false literal at position 1.
                    if clause_lits[cs] == false_lit:
                        clause_lits[cs] = clause_lits[cs + 1]
                        clause_lits[cs + 1] = false_lit
                    first = int(clause_lits[cs])
                    fa = int(assigns[first >> 1])
                    if fa >= 0 and (fa ^ (first & 1)) == 1:
                        i += 1
                        continue
                    # Search for a replacement watch.
                    replaced = False
                    j = 2
                    while j < cl:
                        lj = int(clause_lits[cs + j])
                        aj = int(assigns[lj >> 1])
                        if aj < 0 or (aj ^ (lj & 1)) != 0:
                            # Ensure room in lj's list BEFORE mutating
                            # anything, so a pool-exhausted resume
                            # replays this step identically.
                            wl = int(watch_len[lj])
                            if wl >= watch_cap[lj]:
                                newcap = int(watch_cap[lj]) * 2
                                if newcap < 4:
                                    newcap = 4
                                if regs[R_WUSED] + newcap > len(watch_pool):
                                    regs[R_PHASE] = 1
                                    regs[R_WIDX] = i
                                    return RESIZE_WATCH
                                ns = int(regs[R_WUSED])
                                for k in range(wl):
                                    watch_pool[ns + k] = \
                                        watch_pool[watch_start[lj] + k]
                                watch_start[lj] = ns
                                watch_cap[lj] = newcap
                                regs[R_WUSED] = ns + newcap
                            clause_lits[cs + 1] = lj
                            clause_lits[cs + j] = false_lit
                            watch_pool[watch_start[lj] + wl] = ci
                            watch_len[lj] = wl + 1
                            last = int(watch_len[false_lit]) - 1
                            watch_pool[watch_start[false_lit] + i] = \
                                watch_pool[watch_start[false_lit] + last]
                            watch_len[false_lit] = last
                            replaced = True
                            break
                        j += 1
                    if replaced:
                        continue
                    if fa >= 0 and (fa ^ (first & 1)) == 0:
                        return ci  # Conflict: all literals false.
                    # Unit: enqueue first with this clause as reason.
                    v = first >> 1
                    assigns[v] = 1 ^ (first & 1)
                    level[v] = regs[R_DLEVEL]
                    reason[v] = ci
                    trail[regs[R_TRAIL_LEN]] = first
                    regs[R_TRAIL_LEN] += 1
                    i += 1

        # ---- watched-variable XOR propagation ----------------------
        while True:
            if phase == 2:
                v = int(trail[regs[R_XQHEAD] - 1]) >> 1
                i = int(regs[R_WIDX])
                phase = 0
            else:
                if regs[R_XQHEAD] >= regs[R_TRAIL_LEN]:
                    break
                v = int(trail[regs[R_XQHEAD]]) >> 1
                regs[R_XQHEAD] += 1
                i = 0
            while i < xwatch_len[v]:
                row = int(xwatch_pool[xwatch_start[v] + i])
                w0 = int(xor_w0[row])
                w1 = int(xor_w1[row])
                other = w1 if w0 == v else w0
                rs = int(xor_start[row])
                rl = int(xor_len[row])
                # Move the watch to an unassigned replacement variable.
                replaced = False
                for k in range(rl):
                    u = int(xor_vars[rs + k])
                    if u != other and assigns[u] < 0:
                        xl = int(xwatch_len[u])
                        if xl >= xwatch_cap[u]:
                            newcap = int(xwatch_cap[u]) * 2
                            if newcap < 4:
                                newcap = 4
                            if regs[R_XWUSED] + newcap > len(xwatch_pool):
                                regs[R_PHASE] = 2
                                regs[R_WIDX] = i
                                regs[R_XENQ] = 1 if enqueued else 0
                                return RESIZE_XWATCH
                            ns = int(regs[R_XWUSED])
                            for t in range(xl):
                                xwatch_pool[ns + t] = \
                                    xwatch_pool[xwatch_start[u] + t]
                            xwatch_start[u] = ns
                            xwatch_cap[u] = newcap
                            regs[R_XWUSED] = ns + newcap
                        xor_w0[row] = u
                        xor_w1[row] = other
                        xwatch_pool[xwatch_start[u] + xl] = row
                        xwatch_len[u] = xl + 1
                        last = int(xwatch_len[v]) - 1
                        xwatch_pool[xwatch_start[v] + i] = \
                            xwatch_pool[xwatch_start[v] + last]
                        xwatch_len[v] = last
                        replaced = True
                        break
                if replaced:
                    continue
                # No replacement: the row has <= 1 unassigned variable
                # (or a watcher raced ahead); evaluate it.
                parity = 0
                unassigned_var = -1
                not_unit = False
                for k in range(rl):
                    u = int(xor_vars[rs + k])
                    a = int(assigns[u])
                    if a < 0:
                        if unassigned_var >= 0:
                            not_unit = True  # Raced ahead; row not unit.
                            break
                        unassigned_var = u
                    else:
                        parity ^= a
                if not not_unit:
                    if unassigned_var < 0:
                        if parity != xor_rhs[row]:
                            # Rewind so this variable's remaining
                            # watchers are re-examined after the
                            # conflict is resolved.
                            regs[R_XQHEAD] -= 1
                            return -row - 2
                    else:
                        ib = parity ^ int(xor_rhs[row])
                        lit = 2 * unassigned_var + (0 if ib == 1 else 1)
                        assigns[unassigned_var] = ib
                        level[unassigned_var] = regs[R_DLEVEL]
                        reason[unassigned_var] = -row - 2
                        trail[regs[R_TRAIL_LEN]] = lit
                        regs[R_TRAIL_LEN] += 1
                enqueued = True
                i += 1

        if not enqueued:
            return NO_CONFLICT
        enqueued = False


def luby(i):
    """The i-th element (1-indexed) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ..."""
    while True:
        k = 1
        while (1 << k) - 1 < i:  # Smallest k with 2^k - 1 >= i.
            k += 1
        if (1 << k) - 1 == i:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1  # Recurse into the repeated prefix.


def enqueue(regs, assigns, level, reason, trail, lit, reason_code):
    """Assign ``lit`` true at the current level with ``reason_code``."""
    v = lit >> 1
    assigns[v] = 1 ^ (lit & 1)
    level[v] = regs[R_DLEVEL]
    reason[v] = reason_code
    trail[regs[R_TRAIL_LEN]] = lit
    regs[R_TRAIL_LEN] += 1


def new_level(regs, trail_lim):
    """Open a decision level at the current trail length."""
    d = int(regs[R_DLEVEL])
    trail_lim[d] = regs[R_TRAIL_LEN]
    regs[R_DLEVEL] = d + 1


def backtrack(regs, assigns, reason, trail, saved_phase, trail_lim, to):
    """Undo every level above ``to``, saving phases; clamps the queue
    heads so propagation resumes from the new trail end."""
    if regs[R_DLEVEL] <= to:
        return
    boundary = int(trail_lim[to])
    idx = int(regs[R_TRAIL_LEN]) - 1
    while idx >= boundary:
        v = int(trail[idx]) >> 1
        saved_phase[v] = assigns[v]
        assigns[v] = -1
        reason[v] = REASON_NONE
        idx -= 1
    regs[R_TRAIL_LEN] = boundary
    regs[R_DLEVEL] = to
    if regs[R_QHEAD] > boundary:
        regs[R_QHEAD] = boundary
    if regs[R_XQHEAD] > boundary:
        regs[R_XQHEAD] = boundary


def pick_branch_lit(regs, assigns, saved_phase, activity):
    """The most active unassigned variable in its saved phase, or -1
    when every variable is assigned.  A linear scan: instance sizes here
    are tens of variables, where a heap costs more than it saves."""
    best_var = -1
    best_activity = -1.0
    for v in range(regs[R_NUM_VARS]):
        if assigns[v] < 0 and activity[v] > best_activity:
            best_var = v
            best_activity = activity[v]
    if best_var < 0:
        return -1
    return 2 * best_var + (0 if saved_phase[best_var] == 1 else 1)


def bump_var(regs, fregs, activity, v):
    """VSIDS bump; rescales every activity past ``ACTIVITY_RESCALE``."""
    activity[v] += fregs[F_VAR_INC]
    if activity[v] > fregs[F_RESCALE]:
        scale = 1.0 / fregs[F_RESCALE]
        for u in range(regs[R_NUM_VARS]):
            activity[u] *= scale
        fregs[F_VAR_INC] *= scale


def bump_clause(regs, fregs, clause_act, clause_learnt, learnts, code):
    """Bump a learnt clause's activity (original clauses and XOR rows
    are not subject to deletion, so they carry none)."""
    if code < 0 or clause_learnt[code] != CLAUSE_LEARNT:
        return
    act = clause_act[code] + fregs[F_CLA_INC]
    clause_act[code] = act
    if act > fregs[F_RESCALE]:
        scale = 1.0 / fregs[F_RESCALE]
        for k in range(regs[R_NUM_LEARNTS]):
            clause_act[learnts[k]] *= scale
        fregs[F_CLA_INC] *= scale


def analyze(regs, fregs, assigns, level, reason, trail,
            clause_lits, clause_start, clause_len,
            xor_vars, xor_start, xor_len,
            activity, seen, learnt_buf, clause_act, clause_learnt, learnts,
            conflict):
    """First-UIP analysis of ``conflict``.

    Leaves the learnt clause in ``learnt_buf[:regs[R_LEARNT_LEN]]`` (the
    asserting literal first, the deepest other literal second) and its
    backjump level in ``regs[R_BACKTRACK_LEVEL]``.  XOR reasons are
    materialised lazily from their rows: the currently-false literals of
    the row's variables other than the implied one, in ascending variable
    order -- every one of those variables is still assigned exactly as it
    was at implication time, so this equals the clause an eager
    implementation would have stored.  A clause reason holds its implied
    literal at position 0, which is skipped.
    """
    current_level = regs[R_DLEVEL]
    n = 1  # Slot 0 for the asserting literal.
    counter = 0
    p = -1
    reason_code = conflict
    trail_idx = int(regs[R_TRAIL_LEN]) - 1

    while True:
        bump_clause(regs, fregs, clause_act, clause_learnt, learnts,
                    reason_code)
        if reason_code >= 0:
            cs = int(clause_start[reason_code])
            k = 0 if p < 0 else 1
            count = int(clause_len[reason_code])
        else:
            cs = int(xor_start[-reason_code - 2])
            k = 0
            count = int(xor_len[-reason_code - 2])
        while k < count:
            if reason_code >= 0:
                q = int(clause_lits[cs + k])
            else:
                u = int(xor_vars[cs + k])
                if p >= 0 and u == (p >> 1):
                    k += 1
                    continue
                # u is assigned; the literal opposite to its value is
                # false right now.
                q = 2 * u + (1 if assigns[u] == 1 else 0)
            k += 1
            v = q >> 1
            if seen[v] != 0 or level[v] == 0:
                continue
            seen[v] = 1
            bump_var(regs, fregs, activity, v)
            if level[v] == current_level:
                counter += 1
            else:
                learnt_buf[n] = q
                n += 1
        while seen[trail[trail_idx] >> 1] == 0:
            trail_idx -= 1
        p = int(trail[trail_idx])
        trail_idx -= 1
        seen[p >> 1] = 0
        counter -= 1
        if counter == 0:
            break
        reason_code = int(reason[p >> 1])  # Implied: never REASON_NONE.

    learnt_buf[0] = p ^ 1
    for i in range(1, n):
        seen[learnt_buf[i] >> 1] = 0
    regs[R_LEARNT_LEN] = n
    if n == 1:
        regs[R_BACKTRACK_LEVEL] = 0
        return
    # Backtrack to the second-highest decision level in the clause and
    # place that literal in the second watch position.
    max_idx = 1
    for i in range(2, n):
        if level[learnt_buf[i] >> 1] > level[learnt_buf[max_idx] >> 1]:
            max_idx = i
    q = learnt_buf[1]
    learnt_buf[1] = learnt_buf[max_idx]
    learnt_buf[max_idx] = q
    regs[R_BACKTRACK_LEVEL] = level[learnt_buf[1] >> 1]


def clause_room(regs, clause_lits, clause_start,
                watch_pool, watch_len, watch_cap, buf, n):
    """0 when ``buf[:n]`` (``n >= 2``) can be added to the clause pool
    and watched on its first two literals without growing any array,
    else the ``RESIZE_*`` sentinel of the first pool that is short."""
    if regs[R_NUM_CLAUSES] >= len(clause_start):
        return RESIZE_CLAUSES
    if regs[R_LITS_USED] + n > len(clause_lits):
        return RESIZE_LITS
    need = 0
    for k in range(2):
        lit = buf[k]
        if watch_len[lit] >= watch_cap[lit]:
            newcap = int(watch_cap[lit]) * 2
            if newcap < 4:
                newcap = 4
            need += newcap
    if regs[R_WUSED] + need > len(watch_pool):
        return RESIZE_WATCH
    return 0


def watch_append(regs, watch_pool, watch_start, watch_len, watch_cap,
                 lit, ci):
    """Append clause ``ci`` to ``lit``'s watch list, relocating the list
    to the arena end at double capacity when full (room pre-checked by
    :func:`clause_room`)."""
    length = int(watch_len[lit])
    if length >= watch_cap[lit]:
        newcap = int(watch_cap[lit]) * 2
        if newcap < 4:
            newcap = 4
        used = int(regs[R_WUSED])
        start = int(watch_start[lit])
        for k in range(length):
            watch_pool[used + k] = watch_pool[start + k]
        watch_start[lit] = used
        watch_cap[lit] = newcap
        regs[R_WUSED] = used + newcap
    watch_pool[watch_start[lit] + length] = ci
    watch_len[lit] = length + 1


def add_watched_clause(regs, clause_lits, clause_start, clause_len,
                       watch_pool, watch_start, watch_len, watch_cap,
                       clause_learnt, buf, n, flag):
    """Append ``buf[:n]`` to the clause pool and watch its first two
    literals (room pre-checked); returns the clause index."""
    ci = int(regs[R_NUM_CLAUSES])
    used = int(regs[R_LITS_USED])
    clause_start[ci] = used
    clause_len[ci] = n
    for k in range(n):
        clause_lits[used + k] = buf[k]
    regs[R_LITS_USED] = used + n
    regs[R_NUM_CLAUSES] = ci + 1
    clause_learnt[ci] = flag
    watch_append(regs, watch_pool, watch_start, watch_len, watch_cap,
                 buf[0], ci)
    watch_append(regs, watch_pool, watch_start, watch_len, watch_cap,
                 buf[1], ci)
    return ci


def sort_learnts_by_activity(buf, tmp, n, clause_act):
    """Stable bottom-up merge sort of ``buf[:n]`` by ``clause_act``
    (ties keep their order, like python's ``sorted``)."""
    src = buf
    dst = tmp
    in_buf = True
    width = 1
    while width < n:
        lo = 0
        while lo < n:
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            a = lo
            b = mid
            o = lo
            while a < mid and b < hi:
                if clause_act[src[b]] < clause_act[src[a]]:
                    dst[o] = src[b]
                    b += 1
                else:
                    dst[o] = src[a]
                    a += 1
                o += 1
            while a < mid:
                dst[o] = src[a]
                a += 1
                o += 1
            while b < hi:
                dst[o] = src[b]
                b += 1
                o += 1
            lo += 2 * width
        swap = src
        src = dst
        dst = swap
        in_buf = not in_buf
        width *= 2
    if not in_buf:
        for k in range(n):
            buf[k] = tmp[k]


def rebuild_watches(regs, watch_pool, watch_start, watch_len, watch_cap,
                    clause_learnt, watch_tmp):
    """Rewrite every watch list without deleted clauses, preserving
    per-list order, and compact relocation garbage out of the arena
    (each list gets the smallest power-of-two capacity >= 4 that holds
    it, so the rebuilt arena never outgrows the old one)."""
    num_lits = 2 * regs[R_NUM_VARS]
    t = 0
    for lit in range(num_lits):
        start = int(watch_start[lit])
        kept = 0
        for k in range(watch_len[lit]):
            ci = watch_pool[start + k]
            if clause_learnt[ci] != CLAUSE_DELETED:
                watch_tmp[t] = ci
                t += 1
                kept += 1
        watch_len[lit] = kept
    cursor = 0
    t = 0
    for lit in range(num_lits):
        length = int(watch_len[lit])
        cap = 0
        if length > 0:
            cap = 4
            while cap < length:
                cap *= 2
        watch_start[lit] = cursor
        watch_cap[lit] = cap
        for k in range(length):
            watch_pool[cursor + k] = watch_tmp[t + k]
        t += length
        cursor += cap
    regs[R_WUSED] = cursor


def reduce_learnts(regs, fregs, reason,
                   clause_lits, clause_start, clause_len,
                   watch_pool, watch_start, watch_len, watch_cap,
                   clause_act, clause_learnt, learnts, sort_buf, sort_tmp,
                   watch_tmp):
    """Drop the less-active half of the learned-clause database.

    Keeps binary clauses and clauses currently locked as reasons (a
    reason clause holds its implied literal at position 0); the budget
    then grows geometrically so reductions stay amortised.  Dropped
    clauses become unreachable pool garbage: propagation only reaches
    clauses through watch lists.
    """
    regs[R_DB_REDUCTIONS] += 1
    num = int(regs[R_NUM_LEARNTS])
    for k in range(num):
        sort_buf[k] = learnts[k]
    sort_learnts_by_activity(sort_buf, sort_tmp, num, clause_act)
    budget = num // 2
    dropped = 0
    for k in range(num):
        if dropped >= budget:
            break
        ci = sort_buf[k]
        if clause_len[ci] <= 2:
            continue
        if reason[clause_lits[clause_start[ci]] >> 1] == ci:
            continue  # Locked.
        clause_learnt[ci] = CLAUSE_DELETED
        dropped += 1
    if dropped > 0:
        regs[R_DELETED] += dropped
        kept = 0
        for k in range(num):
            ci = learnts[k]
            if clause_learnt[ci] == CLAUSE_LEARNT:
                learnts[kept] = ci
                kept += 1
        regs[R_NUM_LEARNTS] = kept
        rebuild_watches(regs, watch_pool, watch_start, watch_len, watch_cap,
                        clause_learnt, watch_tmp)
    regs[R_MAX_LEARNTS] = int(regs[R_MAX_LEARNTS] * fregs[F_LEARNT_GROWTH])


def block_decisions(regs, assigns, level, reason, trail,
                    clause_lits, clause_start, clause_len,
                    watch_pool, watch_start, watch_len, watch_cap,
                    saved_phase, trail_lim, seen, learnt_buf, clause_learnt):
    """The blocking step of ``resume_after_block``.

    Excludes the current model by the clause of its negated decision
    literals (assumptions included, deduplicated: a dummy level for an
    already-satisfied assumption repeats the following decision) and
    backjumps to where that clause is unit.  Returns the phase to go on
    with (``S_ROOT_PROPAGATE`` or ``S_LOOP``), 0 when the model was
    forced at the root (``R_OK`` cleared), or a ``RESIZE_*`` sentinel --
    nothing is mutated before the room check, so a re-entry recomputes
    the same clause.
    """
    n = 0
    trail_len = regs[R_TRAIL_LEN]
    for d in range(regs[R_DLEVEL]):
        boundary = trail_lim[d]
        if boundary >= trail_len:
            break
        lit = int(trail[boundary])
        if seen[lit >> 1] == 0:
            seen[lit >> 1] = 1
            learnt_buf[n] = lit ^ 1
            n += 1
    for k in range(n):
        seen[learnt_buf[k] >> 1] = 0
    if n == 0:
        regs[R_OK] = 0
        return 0
    if n == 1:
        backtrack(regs, assigns, reason, trail, saved_phase, trail_lim, 0)
        enqueue(regs, assigns, level, reason, trail, learnt_buf[0],
                REASON_NONE)
        return S_ROOT_PROPAGATE
    # Order by decision level, deepest first (a stable insertion sort):
    # backtracking to the second-deepest level leaves exactly the first
    # literal unassigned, so the clause is unit and redirects the search.
    for i in range(1, n):
        lit = learnt_buf[i]
        j = i - 1
        while j >= 0 and level[learnt_buf[j] >> 1] < level[lit >> 1]:
            learnt_buf[j + 1] = learnt_buf[j]
            j -= 1
        learnt_buf[j + 1] = lit
    room = clause_room(regs, clause_lits, clause_start,
                       watch_pool, watch_len, watch_cap, learnt_buf, n)
    if room != 0:
        return room
    ci = add_watched_clause(regs, clause_lits, clause_start, clause_len,
                            watch_pool, watch_start, watch_len, watch_cap,
                            clause_learnt, learnt_buf, n, CLAUSE_ORIGINAL)
    backtrack(regs, assigns, reason, trail, saved_phase, trail_lim,
              level[learnt_buf[1] >> 1])
    enqueue(regs, assigns, level, reason, trail, learnt_buf[0], ci)
    return S_LOOP


def search(regs, assigns, level, reason, trail,
           clause_lits, clause_start, clause_len,
           watch_pool, watch_start, watch_len, watch_cap,
           xor_vars, xor_start, xor_len, xor_rhs, xor_w0, xor_w1,
           xwatch_pool, xwatch_start, xwatch_len, xwatch_cap,
           fregs, saved_phase, activity, trail_lim, assumptions, seen,
           learnt_buf, clause_act, clause_learnt, learnts, sort_buf,
           sort_tmp, watch_tmp):
    """One solver entry point, chosen by ``regs[R_SPHASE]``
    (``SEARCH_ROOT``/``SEARCH_SOLVE``/``SEARCH_RESUME``, or an ``S_*``
    phase parked by a ``RESIZE_*`` return).

    The CDCL main loop runs under ``assumptions[:R_NUM_ASSUMPTIONS]``,
    which are decided first, one level each, in order.  Returns 1 with a
    model assigned, 0 when there is none, or a ``RESIZE_*`` sentinel.
    """
    phase = regs[R_SPHASE]
    if phase == SEARCH_ROOT:
        backtrack(regs, assigns, reason, trail, saved_phase, trail_lim, 0)
        return 0
    if phase == SEARCH_SOLVE:
        # Root-level fixpoint is an invariant (clauses and XORs are
        # propagated as they are added, and backtracking clamps the
        # queue heads), so this propagation is normally empty.
        backtrack(regs, assigns, reason, trail, saved_phase, trail_lim, 0)
        phase = S_ROOT_PROPAGATE
    elif phase == SEARCH_RESUME:
        phase = block_decisions(
            regs, assigns, level, reason, trail,
            clause_lits, clause_start, clause_len,
            watch_pool, watch_start, watch_len, watch_cap,
            saved_phase, trail_lim, seen, learnt_buf, clause_learnt)
        if phase <= 0:
            return phase
        if phase == S_LOOP:
            regs[R_RESTART_CONFLICTS] = 0
            regs[R_RESTART_NUMBER] = 1
    regs[R_SPHASE] = phase
    if phase == S_ROOT_PROPAGATE:
        code = propagate(regs, assigns, level, reason, trail,
                         clause_lits, clause_start, clause_len,
                         watch_pool, watch_start, watch_len, watch_cap,
                         xor_vars, xor_start, xor_len, xor_rhs, xor_w0,
                         xor_w1, xwatch_pool, xwatch_start, xwatch_len,
                         xwatch_cap)
        if code <= RESIZE_WATCH:
            return code
        if code != NO_CONFLICT:
            regs[R_OK] = 0
            return 0
        regs[R_RESTART_CONFLICTS] = 0
        regs[R_RESTART_NUMBER] = 1
        phase = S_LOOP
        regs[R_SPHASE] = phase

    limit = regs[R_RESTART_BASE] * luby(regs[R_RESTART_NUMBER])
    while True:
        if phase == S_ATTACH:
            n = int(regs[R_LEARNT_LEN])
            if n > 1:
                room = clause_room(regs, clause_lits, clause_start,
                                   watch_pool, watch_len, watch_cap,
                                   learnt_buf, n)
                if room != 0:
                    return room
            backtrack(regs, assigns, reason, trail, saved_phase, trail_lim,
                      regs[R_BACKTRACK_LEVEL])
            regs[R_LEARNED] += 1
            if n == 1:
                enqueue(regs, assigns, level, reason, trail, learnt_buf[0],
                        REASON_NONE)
            else:
                ci = add_watched_clause(
                    regs, clause_lits, clause_start, clause_len,
                    watch_pool, watch_start, watch_len, watch_cap,
                    clause_learnt, learnt_buf, n, CLAUSE_LEARNT)
                learnts[regs[R_NUM_LEARNTS]] = ci
                regs[R_NUM_LEARNTS] += 1
                clause_act[ci] = fregs[F_CLA_INC]
                enqueue(regs, assigns, level, reason, trail, learnt_buf[0],
                        ci)
            fregs[F_VAR_INC] /= fregs[F_VAR_DECAY]
            fregs[F_CLA_INC] /= fregs[F_CLA_DECAY]
            if regs[R_NUM_LEARNTS] > regs[R_MAX_LEARNTS]:
                reduce_learnts(regs, fregs, reason,
                               clause_lits, clause_start, clause_len,
                               watch_pool, watch_start, watch_len, watch_cap,
                               clause_act, clause_learnt, learnts, sort_buf,
                               sort_tmp, watch_tmp)
            phase = S_LOOP
            regs[R_SPHASE] = phase

        conflict = propagate(regs, assigns, level, reason, trail,
                             clause_lits, clause_start, clause_len,
                             watch_pool, watch_start, watch_len, watch_cap,
                             xor_vars, xor_start, xor_len, xor_rhs, xor_w0,
                             xor_w1, xwatch_pool, xwatch_start, xwatch_len,
                             xwatch_cap)
        if conflict <= RESIZE_WATCH:
            return conflict
        if conflict != NO_CONFLICT:
            regs[R_CONFLICTS] += 1
            regs[R_RESTART_CONFLICTS] += 1
            if regs[R_DLEVEL] == 0:
                regs[R_OK] = 0
                return 0
            analyze(regs, fregs, assigns, level, reason, trail,
                    clause_lits, clause_start, clause_len,
                    xor_vars, xor_start, xor_len,
                    activity, seen, learnt_buf, clause_act, clause_learnt,
                    learnts, conflict)
            phase = S_ATTACH
            regs[R_SPHASE] = phase
            continue

        if regs[R_RESTART_CONFLICTS] >= limit:
            regs[R_RESTARTS] += 1
            regs[R_RESTART_CONFLICTS] = 0
            regs[R_RESTART_NUMBER] += 1
            limit = regs[R_RESTART_BASE] * luby(regs[R_RESTART_NUMBER])
            backtrack(regs, assigns, reason, trail, saved_phase, trail_lim, 0)
            continue

        next_lit = -1
        while regs[R_DLEVEL] < regs[R_NUM_ASSUMPTIONS]:
            p = int(assumptions[regs[R_DLEVEL]])
            a = int(assigns[p >> 1])
            if a < 0:
                next_lit = p
                break
            if (a ^ (p & 1)) == 0:
                return 0  # Conflicting assumption.
            new_level(regs, trail_lim)  # Dummy level: already true.
        if next_lit < 0:
            next_lit = pick_branch_lit(regs, assigns, saved_phase, activity)
            if next_lit < 0:
                return 1  # All variables assigned: model found.
            regs[R_DECISIONS] += 1
        new_level(regs, trail_lim)
        enqueue(regs, assigns, level, reason, trail, next_lit, REASON_NONE)
