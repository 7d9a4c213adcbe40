/*
 * The CDCL propagation loop of repro/kernels/cdcl_loops.py, in C.
 *
 * A line-for-line translation: same variables, same statement order,
 * same RESIZE_* park-and-return protocol, same return codes.  The
 * python function is the specification; tests/test_kernels.py holds
 * this file to it (model sequences, oracle-call counts, forced pool
 * resizes).  Change the two together.
 *
 * Calling convention (repro.kernels.native): one array of 24 slots,
 * the 22 propagate() arrays in cdcl_loops.py order, then the lengths
 * of watch_pool and xwatch_pool.  Element types follow
 * repro.kernels.state.SolverState: regs int64, assigns and xor_rhs
 * int8, everything else int32.
 *
 * Build: cc -O2 -shared -fPIC (no -march, so the cached library runs
 * on any host of the same machine type).
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

#define NO_CONFLICT (-1)
#define RESIZE_WATCH (-1000000000LL)
#define RESIZE_XWATCH (-1000000001LL)

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
