/*
 * The CDCL search of repro/kernels/cdcl_loops.py, in C.
 *
 * A line-for-line translation of every function there: same names,
 * same variables, same statement order, same RESIZE_* park-and-return
 * protocol, same return codes.  The python module is the specification;
 * tests/test_kernels.py holds this file to it (model sequences,
 * oracle-call counts, SolverStats counters, forced pool resizes and
 * DB reductions).  Change the two together.
 *
 * Calling convention (repro.kernels.native): one array of 39 slots,
 * the 22 propagate() arrays in cdcl_loops.py order, the lengths of
 * watch_pool and xwatch_pool, the 13 further search() arrays, then the
 * clause slot capacity (length of clause_start and its siblings) and
 * the length of clause_lits.  propagate() reads the first 24 slots, so
 * search() hands it the same array.  Element types follow
 * repro.kernels.state.SolverState (NATIVE_DTYPES).  Where python reads
 * len(array), this file reads the matching length slot; python's
 * array arguments become the fields of struct state.
 *
 * Build: cc -O2 -ffp-contract=off -shared -fPIC (no -march, so the
 * cached library runs on any host of the same machine type; no fused
 * multiply-add, so activities round exactly as python's floats do).
 */

#include <stdint.h>

#define R_TRAIL_LEN 0
#define R_QHEAD 1
#define R_XQHEAD 2
#define R_DLEVEL 3
#define R_PROPS 4
#define R_WUSED 5
#define R_XWUSED 6
#define R_PHASE 7
#define R_WIDX 8
#define R_XENQ 9
#define R_NUM_VARS 10
#define R_NUM_CLAUSES 11
#define R_LITS_USED 12
#define R_NUM_LEARNTS 13
#define R_MAX_LEARNTS 14
#define R_NUM_ASSUMPTIONS 15
#define R_OK 16
#define R_SPHASE 17
#define R_RESTART_CONFLICTS 18
#define R_RESTART_NUMBER 19
#define R_LEARNT_LEN 20
#define R_BACKTRACK_LEVEL 21
#define R_RESTART_BASE 22
#define R_DECISIONS 23
#define R_CONFLICTS 24
#define R_RESTARTS 25
#define R_LEARNED 26
#define R_DELETED 27
#define R_DB_REDUCTIONS 28
#define R_SOLVE_CALLS 29

#define F_VAR_INC 0
#define F_CLA_INC 1
#define F_VAR_DECAY 2
#define F_CLA_DECAY 3
#define F_RESCALE 4
#define F_LEARNT_GROWTH 5

#define SEARCH_ROOT 1
#define SEARCH_SOLVE 2
#define SEARCH_RESUME 3
#define S_ROOT_PROPAGATE 4
#define S_LOOP 5
#define S_ATTACH 6

#define NO_CONFLICT (-1)
#define RESIZE_WATCH (-1000000000LL)
#define RESIZE_XWATCH (-1000000001LL)
#define RESIZE_CLAUSES (-1000000002LL)
#define RESIZE_LITS (-1000000003LL)

#define REASON_NONE (-1)

#define CLAUSE_ORIGINAL 0
#define CLAUSE_LEARNT 1
#define CLAUSE_DELETED 2

int64_t propagate(void *const *args)
{
    int64_t *regs = args[0];
    int8_t *assigns = args[1];
    int32_t *level = args[2];
    int32_t *reason = args[3];
    int32_t *trail = args[4];
    int32_t *clause_lits = args[5];
    int32_t *clause_start = args[6];
    int32_t *clause_len = args[7];
    int32_t *watch_pool = args[8];
    int32_t *watch_start = args[9];
    int32_t *watch_len = args[10];
    int32_t *watch_cap = args[11];
    int32_t *xor_vars = args[12];
    int32_t *xor_start = args[13];
    int32_t *xor_len = args[14];
    int8_t *xor_rhs = args[15];
    int32_t *xor_w0 = args[16];
    int32_t *xor_w1 = args[17];
    int32_t *xwatch_pool = args[18];
    int32_t *xwatch_start = args[19];
    int32_t *xwatch_len = args[20];
    int32_t *xwatch_cap = args[21];
    const int64_t watch_pool_len = (int64_t)(intptr_t)args[22];
    const int64_t xwatch_pool_len = (int64_t)(intptr_t)args[23];

    int64_t phase = regs[R_PHASE];
    regs[R_PHASE] = 0;
    int enqueued = 0;
    if (phase == 2)
        enqueued = regs[R_XENQ] != 0;

    for (;;) {
        if (phase != 2) {
            /* ---- clause propagation to fixpoint -------------------- */
            for (;;) {
                int64_t p, i;
                if (phase == 1) {
                    p = trail[regs[R_QHEAD] - 1];
                    i = regs[R_WIDX];
                    phase = 0;
                } else {
                    if (regs[R_QHEAD] >= regs[R_TRAIL_LEN])
                        break;
                    p = trail[regs[R_QHEAD]];
                    regs[R_QHEAD] += 1;
                    regs[R_PROPS] += 1;
                    i = 0;
                }
                int64_t false_lit = p ^ 1;
                while (i < watch_len[false_lit]) {
                    int64_t ci = watch_pool[watch_start[false_lit] + i];
                    int64_t cs = clause_start[ci];
                    int64_t cl = clause_len[ci];
                    /* Normalise: watched false literal at position 1. */
                    if (clause_lits[cs] == false_lit) {
                        clause_lits[cs] = clause_lits[cs + 1];
                        clause_lits[cs + 1] = (int32_t)false_lit;
                    }
                    int64_t first = clause_lits[cs];
                    int64_t fa = assigns[first >> 1];
                    if (fa >= 0 && (fa ^ (first & 1)) == 1) {
                        i += 1;
                        continue;
                    }
                    /* Search for a replacement watch. */
                    int replaced = 0;
                    int64_t j = 2;
                    while (j < cl) {
                        int64_t lj = clause_lits[cs + j];
                        int64_t aj = assigns[lj >> 1];
                        if (aj < 0 || (aj ^ (lj & 1)) != 0) {
                            /* Ensure room in lj's list BEFORE mutating
                             * anything, so a pool-exhausted resume
                             * replays this step identically. */
                            int64_t wl = watch_len[lj];
                            if (wl >= watch_cap[lj]) {
                                int64_t newcap = (int64_t)watch_cap[lj] * 2;
                                if (newcap < 4)
                                    newcap = 4;
                                if (regs[R_WUSED] + newcap > watch_pool_len) {
                                    regs[R_PHASE] = 1;
                                    regs[R_WIDX] = i;
                                    return RESIZE_WATCH;
                                }
                                int64_t ns = regs[R_WUSED];
                                for (int64_t k = 0; k < wl; k++)
                                    watch_pool[ns + k] =
                                        watch_pool[watch_start[lj] + k];
                                watch_start[lj] = (int32_t)ns;
                                watch_cap[lj] = (int32_t)newcap;
                                regs[R_WUSED] = ns + newcap;
                            }
                            clause_lits[cs + 1] = (int32_t)lj;
                            clause_lits[cs + j] = (int32_t)false_lit;
                            watch_pool[watch_start[lj] + wl] = (int32_t)ci;
                            watch_len[lj] = (int32_t)(wl + 1);
                            int64_t last = (int64_t)watch_len[false_lit] - 1;
                            watch_pool[watch_start[false_lit] + i] =
                                watch_pool[watch_start[false_lit] + last];
                            watch_len[false_lit] = (int32_t)last;
                            replaced = 1;
                            break;
                        }
                        j += 1;
                    }
                    if (replaced)
                        continue;
                    if (fa >= 0 && (fa ^ (first & 1)) == 0)
                        return ci; /* Conflict: all literals false. */
                    /* Unit: enqueue first with this clause as reason. */
                    int64_t v = first >> 1;
                    assigns[v] = (int8_t)(1 ^ (first & 1));
                    level[v] = (int32_t)regs[R_DLEVEL];
                    reason[v] = (int32_t)ci;
                    trail[regs[R_TRAIL_LEN]] = (int32_t)first;
                    regs[R_TRAIL_LEN] += 1;
                    i += 1;
                }
            }
        }

        /* ---- watched-variable XOR propagation ----------------------- */
        for (;;) {
            int64_t v, i;
            if (phase == 2) {
                v = trail[regs[R_XQHEAD] - 1] >> 1;
                i = regs[R_WIDX];
                phase = 0;
            } else {
                if (regs[R_XQHEAD] >= regs[R_TRAIL_LEN])
                    break;
                v = trail[regs[R_XQHEAD]] >> 1;
                regs[R_XQHEAD] += 1;
                i = 0;
            }
            while (i < xwatch_len[v]) {
                int64_t row = xwatch_pool[xwatch_start[v] + i];
                int64_t w0 = xor_w0[row];
                int64_t w1 = xor_w1[row];
                int64_t other = w0 == v ? w1 : w0;
                int64_t rs = xor_start[row];
                int64_t rl = xor_len[row];
                /* Move the watch to an unassigned replacement variable. */
                int replaced = 0;
                for (int64_t k = 0; k < rl; k++) {
                    int64_t u = xor_vars[rs + k];
                    if (u != other && assigns[u] < 0) {
                        int64_t xl = xwatch_len[u];
                        if (xl >= xwatch_cap[u]) {
                            int64_t newcap = (int64_t)xwatch_cap[u] * 2;
                            if (newcap < 4)
                                newcap = 4;
                            if (regs[R_XWUSED] + newcap > xwatch_pool_len) {
                                regs[R_PHASE] = 2;
                                regs[R_WIDX] = i;
                                regs[R_XENQ] = enqueued ? 1 : 0;
                                return RESIZE_XWATCH;
                            }
                            int64_t ns = regs[R_XWUSED];
                            for (int64_t t = 0; t < xl; t++)
                                xwatch_pool[ns + t] =
                                    xwatch_pool[xwatch_start[u] + t];
                            xwatch_start[u] = (int32_t)ns;
                            xwatch_cap[u] = (int32_t)newcap;
                            regs[R_XWUSED] = ns + newcap;
                        }
                        xor_w0[row] = (int32_t)u;
                        xor_w1[row] = (int32_t)other;
                        xwatch_pool[xwatch_start[u] + xl] = (int32_t)row;
                        xwatch_len[u] = (int32_t)(xl + 1);
                        int64_t last = (int64_t)xwatch_len[v] - 1;
                        xwatch_pool[xwatch_start[v] + i] =
                            xwatch_pool[xwatch_start[v] + last];
                        xwatch_len[v] = (int32_t)last;
                        replaced = 1;
                        break;
                    }
                }
                if (replaced)
                    continue;
                /* No replacement: the row has <= 1 unassigned variable
                 * (or a watcher raced ahead); evaluate it. */
                int64_t parity = 0;
                int64_t unassigned_var = -1;
                int not_unit = 0;
                for (int64_t k = 0; k < rl; k++) {
                    int64_t u = xor_vars[rs + k];
                    int64_t a = assigns[u];
                    if (a < 0) {
                        if (unassigned_var >= 0) {
                            not_unit = 1; /* Raced ahead; row not unit. */
                            break;
                        }
                        unassigned_var = u;
                    } else {
                        parity ^= a;
                    }
                }
                if (!not_unit) {
                    if (unassigned_var < 0) {
                        if (parity != xor_rhs[row]) {
                            /* Rewind so this variable's remaining
                             * watchers are re-examined after the
                             * conflict is resolved. */
                            regs[R_XQHEAD] -= 1;
                            return -row - 2;
                        }
                    } else {
                        int64_t ib = parity ^ xor_rhs[row];
                        int64_t lit = 2 * unassigned_var + (ib == 1 ? 0 : 1);
                        assigns[unassigned_var] = (int8_t)ib;
                        level[unassigned_var] = (int32_t)regs[R_DLEVEL];
                        reason[unassigned_var] = (int32_t)(-row - 2);
                        trail[regs[R_TRAIL_LEN]] = (int32_t)lit;
                        regs[R_TRAIL_LEN] += 1;
                    }
                }
                enqueued = 1;
                i += 1;
            }
        }

        if (!enqueued)
            return NO_CONFLICT;
        enqueued = 0;
    }
}

/* ---- the search around propagate() --------------------------------- */

struct state {
    int64_t *regs;
    int8_t *assigns;
    int32_t *level;
    int32_t *reason;
    int32_t *trail;
    int32_t *clause_lits;
    int32_t *clause_start;
    int32_t *clause_len;
    int32_t *watch_pool;
    int32_t *watch_start;
    int32_t *watch_len;
    int32_t *watch_cap;
    int32_t *xor_vars;
    int32_t *xor_start;
    int32_t *xor_len;
    double *fregs;
    int8_t *saved_phase;
    double *activity;
    int32_t *trail_lim;
    int32_t *assumptions;
    int8_t *seen;
    int32_t *learnt_buf;
    double *clause_act;
    int8_t *clause_learnt;
    int32_t *learnts;
    int32_t *sort_buf;
    int32_t *sort_tmp;
    int32_t *watch_tmp;
    int64_t watch_pool_len;
    int64_t clause_cap;       /* len(clause_start) */
    int64_t clause_lits_len;  /* len(clause_lits) */
};

static void unpack(struct state *s, void *const *args)
{
    s->regs = args[0];
    s->assigns = args[1];
    s->level = args[2];
    s->reason = args[3];
    s->trail = args[4];
    s->clause_lits = args[5];
    s->clause_start = args[6];
    s->clause_len = args[7];
    s->watch_pool = args[8];
    s->watch_start = args[9];
    s->watch_len = args[10];
    s->watch_cap = args[11];
    s->xor_vars = args[12];
    s->xor_start = args[13];
    s->xor_len = args[14];
    s->watch_pool_len = (int64_t)(intptr_t)args[22];
    s->fregs = args[24];
    s->saved_phase = args[25];
    s->activity = args[26];
    s->trail_lim = args[27];
    s->assumptions = args[28];
    s->seen = args[29];
    s->learnt_buf = args[30];
    s->clause_act = args[31];
    s->clause_learnt = args[32];
    s->learnts = args[33];
    s->sort_buf = args[34];
    s->sort_tmp = args[35];
    s->watch_tmp = args[36];
    s->clause_cap = (int64_t)(intptr_t)args[37];
    s->clause_lits_len = (int64_t)(intptr_t)args[38];
}

static int64_t luby(int64_t i)
{
    for (;;) {
        int64_t k = 1;
        while ((1LL << k) - 1 < i) /* Smallest k with 2^k - 1 >= i. */
            k += 1;
        if ((1LL << k) - 1 == i)
            return 1LL << (k - 1);
        i -= (1LL << (k - 1)) - 1; /* Recurse into the repeated prefix. */
    }
}

static void enqueue(const struct state *s, int64_t lit, int64_t reason_code)
{
    int64_t *regs = s->regs;
    int64_t v = lit >> 1;
    s->assigns[v] = (int8_t)(1 ^ (lit & 1));
    s->level[v] = (int32_t)regs[R_DLEVEL];
    s->reason[v] = (int32_t)reason_code;
    s->trail[regs[R_TRAIL_LEN]] = (int32_t)lit;
    regs[R_TRAIL_LEN] += 1;
}

static void new_level(const struct state *s)
{
    int64_t *regs = s->regs;
    int64_t d = regs[R_DLEVEL];
    s->trail_lim[d] = (int32_t)regs[R_TRAIL_LEN];
    regs[R_DLEVEL] = d + 1;
}

static void backtrack(const struct state *s, int64_t to)
{
    int64_t *regs = s->regs;
    int8_t *assigns = s->assigns;
    if (regs[R_DLEVEL] <= to)
        return;
    int64_t boundary = s->trail_lim[to];
    int64_t idx = regs[R_TRAIL_LEN] - 1;
    while (idx >= boundary) {
        int64_t v = s->trail[idx] >> 1;
        s->saved_phase[v] = assigns[v];
        assigns[v] = -1;
        s->reason[v] = REASON_NONE;
        idx -= 1;
    }
    regs[R_TRAIL_LEN] = boundary;
    regs[R_DLEVEL] = to;
    if (regs[R_QHEAD] > boundary)
        regs[R_QHEAD] = boundary;
    if (regs[R_XQHEAD] > boundary)
        regs[R_XQHEAD] = boundary;
}

static int64_t pick_branch_lit(const struct state *s)
{
    const int8_t *assigns = s->assigns;
    const double *activity = s->activity;
    int64_t best_var = -1;
    double best_activity = -1.0;
    for (int64_t v = 0; v < s->regs[R_NUM_VARS]; v++) {
        if (assigns[v] < 0 && activity[v] > best_activity) {
            best_var = v;
            best_activity = activity[v];
        }
    }
    if (best_var < 0)
        return -1;
    return 2 * best_var + (s->saved_phase[best_var] == 1 ? 0 : 1);
}

static void bump_var(const struct state *s, int64_t v)
{
    double *fregs = s->fregs;
    double *activity = s->activity;
    activity[v] += fregs[F_VAR_INC];
    if (activity[v] > fregs[F_RESCALE]) {
        double scale = 1.0 / fregs[F_RESCALE];
        for (int64_t u = 0; u < s->regs[R_NUM_VARS]; u++)
            activity[u] *= scale;
        fregs[F_VAR_INC] *= scale;
    }
}

static void bump_clause(const struct state *s, int64_t code)
{
    double *fregs = s->fregs;
    double *clause_act = s->clause_act;
    if (code < 0 || s->clause_learnt[code] != CLAUSE_LEARNT)
        return;
    double act = clause_act[code] + fregs[F_CLA_INC];
    clause_act[code] = act;
    if (act > fregs[F_RESCALE]) {
        double scale = 1.0 / fregs[F_RESCALE];
        for (int64_t k = 0; k < s->regs[R_NUM_LEARNTS]; k++)
            clause_act[s->learnts[k]] *= scale;
        fregs[F_CLA_INC] *= scale;
    }
}

static void analyze(const struct state *s, int64_t conflict)
{
    int64_t *regs = s->regs;
    const int8_t *assigns = s->assigns;
    const int32_t *level = s->level;
    const int32_t *trail = s->trail;
    int8_t *seen = s->seen;
    int32_t *learnt_buf = s->learnt_buf;
    int64_t current_level = regs[R_DLEVEL];
    int64_t n = 1; /* Slot 0 for the asserting literal. */
    int64_t counter = 0;
    int64_t p = -1;
    int64_t reason_code = conflict;
    int64_t trail_idx = regs[R_TRAIL_LEN] - 1;

    for (;;) {
        bump_clause(s, reason_code);
        int64_t cs, k, count;
        if (reason_code >= 0) {
            cs = s->clause_start[reason_code];
            k = p < 0 ? 0 : 1;
            count = s->clause_len[reason_code];
        } else {
            cs = s->xor_start[-reason_code - 2];
            k = 0;
            count = s->xor_len[-reason_code - 2];
        }
        while (k < count) {
            int64_t q;
            if (reason_code >= 0) {
                q = s->clause_lits[cs + k];
            } else {
                int64_t u = s->xor_vars[cs + k];
                if (p >= 0 && u == (p >> 1)) {
                    k += 1;
                    continue;
                }
                /* u is assigned; the literal opposite to its value is
                 * false right now. */
                q = 2 * u + (assigns[u] == 1 ? 1 : 0);
            }
            k += 1;
            int64_t v = q >> 1;
            if (seen[v] != 0 || level[v] == 0)
                continue;
            seen[v] = 1;
            bump_var(s, v);
            if (level[v] == current_level) {
                counter += 1;
            } else {
                learnt_buf[n] = (int32_t)q;
                n += 1;
            }
        }
        while (seen[trail[trail_idx] >> 1] == 0)
            trail_idx -= 1;
        p = trail[trail_idx];
        trail_idx -= 1;
        seen[p >> 1] = 0;
        counter -= 1;
        if (counter == 0)
            break;
        reason_code = s->reason[p >> 1]; /* Implied: never REASON_NONE. */
    }

    learnt_buf[0] = (int32_t)(p ^ 1);
    for (int64_t i = 1; i < n; i++)
        seen[learnt_buf[i] >> 1] = 0;
    regs[R_LEARNT_LEN] = n;
    if (n == 1) {
        regs[R_BACKTRACK_LEVEL] = 0;
        return;
    }
    /* Backtrack to the second-highest decision level in the clause and
     * place that literal in the second watch position. */
    int64_t max_idx = 1;
    for (int64_t i = 2; i < n; i++) {
        if (level[learnt_buf[i] >> 1] > level[learnt_buf[max_idx] >> 1])
            max_idx = i;
    }
    int32_t q = learnt_buf[1];
    learnt_buf[1] = learnt_buf[max_idx];
    learnt_buf[max_idx] = q;
    regs[R_BACKTRACK_LEVEL] = level[learnt_buf[1] >> 1];
}

static int64_t clause_room(const struct state *s, const int32_t *buf,
                           int64_t n)
{
    const int64_t *regs = s->regs;
    const int32_t *watch_len = s->watch_len;
    const int32_t *watch_cap = s->watch_cap;
    if (regs[R_NUM_CLAUSES] >= s->clause_cap)
        return RESIZE_CLAUSES;
    if (regs[R_LITS_USED] + n > s->clause_lits_len)
        return RESIZE_LITS;
    int64_t need = 0;
    for (int64_t k = 0; k < 2; k++) {
        int64_t lit = buf[k];
        if (watch_len[lit] >= watch_cap[lit]) {
            int64_t newcap = (int64_t)watch_cap[lit] * 2;
            if (newcap < 4)
                newcap = 4;
            need += newcap;
        }
    }
    if (regs[R_WUSED] + need > s->watch_pool_len)
        return RESIZE_WATCH;
    return 0;
}

static void watch_append(const struct state *s, int64_t lit, int64_t ci)
{
    int64_t *regs = s->regs;
    int32_t *watch_pool = s->watch_pool;
    int32_t *watch_start = s->watch_start;
    int32_t *watch_len = s->watch_len;
    int32_t *watch_cap = s->watch_cap;
    int64_t length = watch_len[lit];
    if (length >= watch_cap[lit]) {
        int64_t newcap = (int64_t)watch_cap[lit] * 2;
        if (newcap < 4)
            newcap = 4;
        int64_t used = regs[R_WUSED];
        int64_t start = watch_start[lit];
        for (int64_t k = 0; k < length; k++)
            watch_pool[used + k] = watch_pool[start + k];
        watch_start[lit] = (int32_t)used;
        watch_cap[lit] = (int32_t)newcap;
        regs[R_WUSED] = used + newcap;
    }
    watch_pool[watch_start[lit] + length] = (int32_t)ci;
    watch_len[lit] = (int32_t)(length + 1);
}

static int64_t add_watched_clause(const struct state *s, const int32_t *buf,
                                  int64_t n, int64_t flag)
{
    int64_t *regs = s->regs;
    int64_t ci = regs[R_NUM_CLAUSES];
    int64_t used = regs[R_LITS_USED];
    s->clause_start[ci] = (int32_t)used;
    s->clause_len[ci] = (int32_t)n;
    for (int64_t k = 0; k < n; k++)
        s->clause_lits[used + k] = buf[k];
    regs[R_LITS_USED] = used + n;
    regs[R_NUM_CLAUSES] = ci + 1;
    s->clause_learnt[ci] = (int8_t)flag;
    watch_append(s, buf[0], ci);
    watch_append(s, buf[1], ci);
    return ci;
}

static void sort_learnts_by_activity(int32_t *buf, int32_t *tmp, int64_t n,
                                     const double *clause_act)
{
    int32_t *src = buf;
    int32_t *dst = tmp;
    int in_buf = 1;
    int64_t width = 1;
    while (width < n) {
        int64_t lo = 0;
        while (lo < n) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo;
            int64_t b = mid;
            int64_t o = lo;
            while (a < mid && b < hi) {
                if (clause_act[src[b]] < clause_act[src[a]]) {
                    dst[o] = src[b];
                    b += 1;
                } else {
                    dst[o] = src[a];
                    a += 1;
                }
                o += 1;
            }
            while (a < mid) {
                dst[o] = src[a];
                a += 1;
                o += 1;
            }
            while (b < hi) {
                dst[o] = src[b];
                b += 1;
                o += 1;
            }
            lo += 2 * width;
        }
        int32_t *swap = src;
        src = dst;
        dst = swap;
        in_buf = !in_buf;
        width *= 2;
    }
    if (!in_buf) {
        for (int64_t k = 0; k < n; k++)
            buf[k] = tmp[k];
    }
}

static void rebuild_watches(const struct state *s)
{
    int32_t *watch_pool = s->watch_pool;
    int32_t *watch_start = s->watch_start;
    int32_t *watch_len = s->watch_len;
    int32_t *watch_cap = s->watch_cap;
    int32_t *watch_tmp = s->watch_tmp;
    int64_t num_lits = 2 * s->regs[R_NUM_VARS];
    int64_t t = 0;
    for (int64_t lit = 0; lit < num_lits; lit++) {
        int64_t start = watch_start[lit];
        int64_t kept = 0;
        for (int64_t k = 0; k < watch_len[lit]; k++) {
            int32_t ci = watch_pool[start + k];
            if (s->clause_learnt[ci] != CLAUSE_DELETED) {
                watch_tmp[t] = ci;
                t += 1;
                kept += 1;
            }
        }
        watch_len[lit] = (int32_t)kept;
    }
    int64_t cursor = 0;
    t = 0;
    for (int64_t lit = 0; lit < num_lits; lit++) {
        int64_t length = watch_len[lit];
        int64_t cap = 0;
        if (length > 0) {
            cap = 4;
            while (cap < length)
                cap *= 2;
        }
        watch_start[lit] = (int32_t)cursor;
        watch_cap[lit] = (int32_t)cap;
        for (int64_t k = 0; k < length; k++)
            watch_pool[cursor + k] = watch_tmp[t + k];
        t += length;
        cursor += cap;
    }
    s->regs[R_WUSED] = cursor;
}

static void reduce_learnts(const struct state *s)
{
    int64_t *regs = s->regs;
    int8_t *clause_learnt = s->clause_learnt;
    int32_t *learnts = s->learnts;
    int32_t *sort_buf = s->sort_buf;
    regs[R_DB_REDUCTIONS] += 1;
    int64_t num = regs[R_NUM_LEARNTS];
    for (int64_t k = 0; k < num; k++)
        sort_buf[k] = learnts[k];
    sort_learnts_by_activity(sort_buf, s->sort_tmp, num, s->clause_act);
    int64_t budget = num / 2;
    int64_t dropped = 0;
    for (int64_t k = 0; k < num; k++) {
        if (dropped >= budget)
            break;
        int64_t ci = sort_buf[k];
        if (s->clause_len[ci] <= 2)
            continue;
        if (s->reason[s->clause_lits[s->clause_start[ci]] >> 1] == ci)
            continue; /* Locked. */
        clause_learnt[ci] = CLAUSE_DELETED;
        dropped += 1;
    }
    if (dropped > 0) {
        regs[R_DELETED] += dropped;
        int64_t kept = 0;
        for (int64_t k = 0; k < num; k++) {
            int32_t ci = learnts[k];
            if (clause_learnt[ci] == CLAUSE_LEARNT) {
                learnts[kept] = ci;
                kept += 1;
            }
        }
        regs[R_NUM_LEARNTS] = kept;
        rebuild_watches(s);
    }
    regs[R_MAX_LEARNTS] =
        (int64_t)((double)regs[R_MAX_LEARNTS] * s->fregs[F_LEARNT_GROWTH]);
}

static int64_t block_decisions(const struct state *s)
{
    int64_t *regs = s->regs;
    const int32_t *level = s->level;
    const int32_t *trail = s->trail;
    int8_t *seen = s->seen;
    int32_t *learnt_buf = s->learnt_buf;
    int64_t n = 0;
    int64_t trail_len = regs[R_TRAIL_LEN];
    for (int64_t d = 0; d < regs[R_DLEVEL]; d++) {
        int64_t boundary = s->trail_lim[d];
        if (boundary >= trail_len)
            break;
        int64_t lit = trail[boundary];
        if (seen[lit >> 1] == 0) {
            seen[lit >> 1] = 1;
            learnt_buf[n] = (int32_t)(lit ^ 1);
            n += 1;
        }
    }
    for (int64_t k = 0; k < n; k++)
        seen[learnt_buf[k] >> 1] = 0;
    if (n == 0) {
        regs[R_OK] = 0;
        return 0;
    }
    if (n == 1) {
        backtrack(s, 0);
        enqueue(s, learnt_buf[0], REASON_NONE);
        return S_ROOT_PROPAGATE;
    }
    /* Order by decision level, deepest first (a stable insertion sort):
     * backtracking to the second-deepest level leaves exactly the first
     * literal unassigned, so the clause is unit and redirects the
     * search. */
    for (int64_t i = 1; i < n; i++) {
        int32_t lit = learnt_buf[i];
        int64_t j = i - 1;
        while (j >= 0 && level[learnt_buf[j] >> 1] < level[lit >> 1]) {
            learnt_buf[j + 1] = learnt_buf[j];
            j -= 1;
        }
        learnt_buf[j + 1] = lit;
    }
    int64_t room = clause_room(s, learnt_buf, n);
    if (room != 0)
        return room;
    int64_t ci = add_watched_clause(s, learnt_buf, n, CLAUSE_ORIGINAL);
    backtrack(s, level[learnt_buf[1] >> 1]);
    enqueue(s, learnt_buf[0], ci);
    return S_LOOP;
}

int64_t search(void *const *args)
{
    struct state st;
    unpack(&st, args);
    const struct state *s = &st;
    int64_t *regs = s->regs;
    const int8_t *assigns = s->assigns;
    int32_t *learnt_buf = s->learnt_buf;

    int64_t phase = regs[R_SPHASE];
    if (phase == SEARCH_ROOT) {
        backtrack(s, 0);
        return 0;
    }
    if (phase == SEARCH_SOLVE) {
        /* Root-level fixpoint is an invariant (clauses and XORs are
         * propagated as they are added, and backtracking clamps the
         * queue heads), so this propagation is normally empty. */
        backtrack(s, 0);
        phase = S_ROOT_PROPAGATE;
    } else if (phase == SEARCH_RESUME) {
        phase = block_decisions(s);
        if (phase <= 0)
            return phase;
        if (phase == S_LOOP) {
            regs[R_RESTART_CONFLICTS] = 0;
            regs[R_RESTART_NUMBER] = 1;
        }
    }
    regs[R_SPHASE] = phase;
    if (phase == S_ROOT_PROPAGATE) {
        int64_t code = propagate(args);
        if (code <= RESIZE_WATCH)
            return code;
        if (code != NO_CONFLICT) {
            regs[R_OK] = 0;
            return 0;
        }
        regs[R_RESTART_CONFLICTS] = 0;
        regs[R_RESTART_NUMBER] = 1;
        phase = S_LOOP;
        regs[R_SPHASE] = phase;
    }

    int64_t limit = regs[R_RESTART_BASE] * luby(regs[R_RESTART_NUMBER]);
    for (;;) {
        if (phase == S_ATTACH) {
            int64_t n = regs[R_LEARNT_LEN];
            if (n > 1) {
                int64_t room = clause_room(s, learnt_buf, n);
                if (room != 0)
                    return room;
            }
            backtrack(s, regs[R_BACKTRACK_LEVEL]);
            regs[R_LEARNED] += 1;
            if (n == 1) {
                enqueue(s, learnt_buf[0], REASON_NONE);
            } else {
                int64_t ci = add_watched_clause(s, learnt_buf, n,
                                                CLAUSE_LEARNT);
                s->learnts[regs[R_NUM_LEARNTS]] = (int32_t)ci;
                regs[R_NUM_LEARNTS] += 1;
                s->clause_act[ci] = s->fregs[F_CLA_INC];
                enqueue(s, learnt_buf[0], ci);
            }
            s->fregs[F_VAR_INC] /= s->fregs[F_VAR_DECAY];
            s->fregs[F_CLA_INC] /= s->fregs[F_CLA_DECAY];
            if (regs[R_NUM_LEARNTS] > regs[R_MAX_LEARNTS])
                reduce_learnts(s);
            phase = S_LOOP;
            regs[R_SPHASE] = phase;
        }

        int64_t conflict = propagate(args);
        if (conflict <= RESIZE_WATCH)
            return conflict;
        if (conflict != NO_CONFLICT) {
            regs[R_CONFLICTS] += 1;
            regs[R_RESTART_CONFLICTS] += 1;
            if (regs[R_DLEVEL] == 0) {
                regs[R_OK] = 0;
                return 0;
            }
            analyze(s, conflict);
            phase = S_ATTACH;
            regs[R_SPHASE] = phase;
            continue;
        }

        if (regs[R_RESTART_CONFLICTS] >= limit) {
            regs[R_RESTARTS] += 1;
            regs[R_RESTART_CONFLICTS] = 0;
            regs[R_RESTART_NUMBER] += 1;
            limit = regs[R_RESTART_BASE] * luby(regs[R_RESTART_NUMBER]);
            backtrack(s, 0);
            continue;
        }

        int64_t next_lit = -1;
        while (regs[R_DLEVEL] < regs[R_NUM_ASSUMPTIONS]) {
            int64_t p = s->assumptions[regs[R_DLEVEL]];
            int64_t a = assigns[p >> 1];
            if (a < 0) {
                next_lit = p;
                break;
            }
            if ((a ^ (p & 1)) == 0)
                return 0; /* Conflicting assumption. */
            new_level(s); /* Dummy level: already true. */
        }
        if (next_lit < 0) {
            next_lit = pick_branch_lit(s);
            if (next_lit < 0)
                return 1; /* All variables assigned: model found. */
            regs[R_DECISIONS] += 1;
        }
        new_level(s);
        enqueue(s, next_lit, REASON_NONE);
    }
}
