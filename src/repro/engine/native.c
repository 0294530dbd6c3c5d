/*
 * Native event loop for the single-group, untraced engine path.
 *
 * A line-for-line port of Simulator.run() restricted to the `_single`
 * branch with the plain storage model, together with _advance,
 * _advance_one, _issue_io, _issue_comm, the EventCalendar heap and the
 * RunnableIndex.  It works in place on the simulator's numpy arrays and
 * performs every floating-point operation of the Python loop in the same
 * order on the same operands, so a run is bit-identical to the Python
 * reference.  Build with -ffp-contract=off and without -ffast-math.
 *
 * The kernel hands control back to Python (ns_run returns) when
 *   - a rate record for a new runnable count is needed (Python computes
 *     it with Simulator._sg_record and stores it in `rec`),
 *   - the op-response or latency buffers passed `flush_at` entries
 *     (Python replays them into its lists / LatencyRecorder in order),
 *   - a guard trips (Python raises the usual SimulationError), or
 *   - every thread is done.
 * Every return leaves the state as it is at the top of a loop iteration
 * (a record miss happens before the step changes anything but its step
 * count, which it undoes), so resuming is simply calling ns_run again.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* thread states and blocked causes (simulator.py) */
enum { ST_PRE = 0, ST_RUN = 1, ST_BLOCK = 2, ST_BARRIER = 3, ST_DONE = 4 };
enum { CAUSE_IO = 1, CAUSE_COMM = 2 };
/* segment kinds (compile.py) */
enum { K_COMPUTE = 0, K_IO = 1, K_COMM = 2, K_BARRIER = 3 };
/* ns_run return codes */
enum {
    RC_DONE = 0, RC_RECORD = 1, RC_FLUSH = 2,
    RC_MAX_STEPS = 3, RC_MAX_TIME = 4, RC_DEADLOCK = 5, RC_NOMEM = 6
};
/* latency streams: io_wait, comm_wait, barrier_wait */
enum { LAT_IO = 0, LAT_COMM = 1, LAT_BARRIER = 2, N_LAT = 3 };
/* rate record: the _sg_record tuple minus timeslice and share */
enum {
    R_CFAC, R_MIG, R_NUM, R_BUSY, R_EV, R_USEFUL, R_STEADY, R_BG,
    R_MIGFAC, R_WAIT, R_N
};
/* PerfCounters float fields */
enum {
    C_BUSY, C_USEFUL, C_WAIT, C_EVENTS, C_MIG, C_WAKEMIG, C_CGROUP,
    C_CTX, C_MIGTIME, C_BG, C_IO, C_COMM, C_BARRIER, C_N
};

#define EPS 1e-12

/* a growable buffer of doubles Python replays */
typedef struct {
    double *v;
    int64_t n, cap;
} ns_buf;

typedef struct {
    /* compiled program tables (read only) */
    int64_t n_threads;
    int64_t n_barriers;
    const int64_t *seg_base;
    const int8_t *kind;
    const double *work, *mem, *pp;
    const uint8_t *io_disk;
    const double *io_base, *io_scale, *io_fixed, *io_net_dur;
    const double *io_extra, *io_wakemig;
    const int64_t *io_irqs;
    const double *comm_dur;
    const int32_t *bar_key;
    const uint8_t *mark_mask;
    const double *mark_submit;

    /* per-thread state: the simulator's own arrays, updated in place */
    int8_t *state;
    double *remaining, *wake;
    int64_t *seg_ptr;
    double *mem_int, *platform_penalty, *finish;
    int8_t *blocked_cause;
    uint8_t *is_disk_io;
    double *barrier_enter, *pending_extra, *gm;
    uint8_t *runnable; /* RunnableIndex.mask */
    int64_t *bar_remaining;

    /* scalars, read on entry and written back by Python on exit */
    double t, max_time, disk_conc, gamma, thrash, p_mig, ctx_cost, cgsw;
    int64_t n_done, n_run, outstanding_disk, steps, max_steps;
    int64_t n_waiting, need_record, record_latency, barrier_released;
    double counters[C_N];
    int64_t irqs;

    /* rate records by runnable count and the timeslice histogram:
       bucket b accumulates weight for one round(ts, 6) key; ts_order
       lists buckets in first-add order */
    double *rec;
    uint8_t *rec_ok;
    int64_t *rec_bucket;
    double *ts_weight;
    uint8_t *ts_touched;
    int64_t *ts_order;
    int64_t n_ts_order;

    /* initial calendar entries and barrier waiters (copied by ns_init) */
    const double *init_heap_t;
    const int64_t *init_heap_id;
    int64_t n_init_heap;
    const int64_t *init_wait_bar, *init_wait_tid;
    int64_t n_init_wait;

    /* buffers Python replays: op responses, and latency observations
       per stream with the streams in first-use order since the last
       replay */
    int64_t flush_at;
    ns_buf resp;
    ns_buf lat[N_LAT];
    int64_t lat_order[N_LAT], n_lat_order;

    /* kernel-owned scratch */
    double *heap_t;
    int64_t *heap_id;
    int64_t n_heap, cap_heap;
    int64_t *wait_head, *wait_tail, *wait_next;
    int64_t *run_idx, n_idx, dirty;
    double *rate, *ttf;
    int64_t *fin, *due, *stack;
    uint8_t *seen;
} ns_state;

int64_t ns_state_size(void) { return (int64_t)sizeof(ns_state); }

/* ------------------------------------------------------------------ */
/* event calendar: binary heap over (time, tid), lexicographic like the
   Python heap of tuples; an entry is valid iff wake[tid] == time */

static int heap_less(const ns_state *s, int64_t a, int64_t b) {
    if (s->heap_t[a] != s->heap_t[b]) return s->heap_t[a] < s->heap_t[b];
    return s->heap_id[a] < s->heap_id[b];
}

static void heap_swap(ns_state *s, int64_t a, int64_t b) {
    double t = s->heap_t[a];
    int64_t id = s->heap_id[a];
    s->heap_t[a] = s->heap_t[b];
    s->heap_id[a] = s->heap_id[b];
    s->heap_t[b] = t;
    s->heap_id[b] = id;
}

static int heap_push(ns_state *s, double t, int64_t tid) {
    if (s->n_heap == s->cap_heap) {
        int64_t cap = 2 * s->cap_heap + 16;
        double *ht = realloc(s->heap_t, (size_t)cap * sizeof(double));
        if (!ht) return -1;
        s->heap_t = ht;
        int64_t *hi = realloc(s->heap_id, (size_t)cap * sizeof(int64_t));
        if (!hi) return -1;
        s->heap_id = hi;
        s->cap_heap = cap;
    }
    int64_t i = s->n_heap++;
    s->heap_t[i] = t;
    s->heap_id[i] = tid;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!heap_less(s, i, parent)) break;
        heap_swap(s, i, parent);
        i = parent;
    }
    return 0;
}

static void heap_pop(ns_state *s) {
    int64_t n = --s->n_heap;
    s->heap_t[0] = s->heap_t[n];
    s->heap_id[0] = s->heap_id[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && heap_less(s, l, m)) m = l;
        if (r < n && heap_less(s, r, m)) m = r;
        if (m == i) break;
        heap_swap(s, i, m);
        i = m;
    }
}

/* EventCalendar.next_time */
static double next_time(ns_state *s) {
    while (s->n_heap) {
        if (s->wake[s->heap_id[0]] == s->heap_t[0]) return s->heap_t[0];
        heap_pop(s);
    }
    return INFINITY;
}

static int cmp_tid(const void *a, const void *b) {
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* EventCalendar.pop_due: valid tids due by `cutoff`, ascending, unique */
static int64_t pop_due(ns_state *s, double cutoff) {
    int64_t n_due = 0;
    while (s->n_heap && s->heap_t[0] <= cutoff) {
        double t = s->heap_t[0];
        int64_t tid = s->heap_id[0];
        heap_pop(s);
        if (s->wake[tid] == t && !s->seen[tid]) {
            s->seen[tid] = 1;
            s->due[n_due++] = tid;
        }
    }
    for (int64_t k = 0; k < n_due; k++) s->seen[s->due[k]] = 0;
    if (n_due > 1) qsort(s->due, (size_t)n_due, sizeof(int64_t), cmp_tid);
    return n_due;
}

/* ------------------------------------------------------------------ */
/* runnable index */

static void idx_add(ns_state *s, int64_t j) {
    s->runnable[j] = 1;
    s->n_run++;
    s->dirty = 1;
}

static void idx_remove(ns_state *s, int64_t j) {
    s->runnable[j] = 0;
    s->n_run--;
    s->dirty = 1;
}

/* RunnableIndex.indices: sorted runnable tids, rescanned when dirty */
static void idx_refresh(ns_state *s) {
    if (!s->dirty) return;
    int64_t m = 0;
    for (int64_t j = 0; j < s->n_threads; j++)
        if (s->runnable[j]) s->run_idx[m++] = j;
    s->n_idx = m;
    s->dirty = 0;
}

/* ------------------------------------------------------------------ */
/* replay buffers */

static int buf_push(ns_buf *b, double v) {
    if (b->n == b->cap) {
        int64_t cap = 2 * b->cap + 64;
        double *p = realloc(b->v, (size_t)cap * sizeof(double));
        if (!p) return -1;
        b->v = p;
        b->cap = cap;
    }
    b->v[b->n++] = v;
    return 0;
}

static int push_lat(ns_state *s, int stream, double v) {
    if (!s->record_latency) return 0;
    if (s->lat[stream].n == 0) s->lat_order[s->n_lat_order++] = stream;
    return buf_push(&s->lat[stream], v);
}

static int flush_due(const ns_state *s) {
    if (s->resp.n >= s->flush_at) return 1;
    for (int k = 0; k < N_LAT; k++)
        if (s->lat[k].n >= s->flush_at) return 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* segment transitions */

/* Simulator._issue_io */
static int issue_io(ns_state *s, int64_t j, int64_t row, double t) {
    double duration;
    if (s->io_disk[row]) {
        int64_t out = s->outstanding_disk + 1;
        double conc = s->disk_conc;
        double device = s->io_base[row]
                        * ((double)out <= conc ? 1.0 : (double)out / conc);
        device = device * s->io_scale[row];
        duration = device + s->io_fixed[row];
        s->outstanding_disk = out;
        s->is_disk_io[j] = 1;
    } else {
        duration = s->io_net_dur[row];
        s->is_disk_io[j] = 0;
    }
    s->blocked_cause[j] = CAUSE_IO;
    double wake_t = t + duration;
    s->wake[j] = wake_t;
    if (heap_push(s, wake_t, j)) return -1;
    s->pending_extra[j] += s->io_extra[row];
    s->irqs += s->io_irqs[row];
    s->counters[C_WAKEMIG] += s->io_wakemig[row];
    s->counters[C_IO] += duration;
    return push_lat(s, LAT_IO, duration);
}

/* Simulator._issue_comm */
static int issue_comm(ns_state *s, int64_t j, int64_t row, double t) {
    double duration = s->comm_dur[row];
    s->blocked_cause[j] = CAUSE_COMM;
    s->is_disk_io[j] = 0;
    double wake_t = t + duration;
    s->wake[j] = wake_t;
    if (heap_push(s, wake_t, j)) return -1;
    s->counters[C_COMM] += duration;
    return push_lat(s, LAT_COMM, duration);
}

/* Simulator._advance_one; released barrier waiters go on the stack */
static int advance_one(ns_state *s, int64_t j, double t, int64_t *sp) {
    int64_t base = s->seg_base[j];
    int64_t end = s->seg_base[j + 1];
    int64_t row = base + s->seg_ptr[j];
    if (row >= base && s->mark_mask[row]) {
        if (buf_push(&s->resp, t - s->mark_submit[row])) return -1;
    }
    for (;;) {
        row++;
        if (row >= end) {
            s->seg_ptr[j] = row - base;
            s->state[j] = ST_DONE;
            s->finish[j] = t;
            s->n_done++;
            if (s->runnable[j]) idx_remove(s, j);
            return 0;
        }
        int k = s->kind[row];
        if (k == K_COMPUTE) {
            s->seg_ptr[j] = row - base;
            s->state[j] = ST_RUN;
            s->remaining[j] = s->work[row] + s->pending_extra[j];
            s->pending_extra[j] = 0.0;
            s->mem_int[j] = s->mem[row];
            s->platform_penalty[j] = s->pp[row];
            s->gm[j] = s->gamma * s->mem[row];
            s->wake[j] = INFINITY;
            if (!s->runnable[j]) idx_add(s, j);
            return 0;
        }
        if (k == K_IO) {
            s->seg_ptr[j] = row - base;
            s->state[j] = ST_BLOCK;
            if (s->runnable[j]) idx_remove(s, j);
            return issue_io(s, j, row, t);
        }
        if (k == K_BARRIER) {
            s->seg_ptr[j] = row - base;
            int64_t b = s->bar_key[row];
            int64_t rem = --s->bar_remaining[b];
            if (rem > 0) {
                s->state[j] = ST_BARRIER;
                s->barrier_enter[j] = t;
                s->wake[j] = INFINITY;
                if (s->runnable[j]) idx_remove(s, j);
                s->wait_next[j] = -1;
                if (s->wait_tail[b] < 0) s->wait_head[b] = j;
                else s->wait_next[s->wait_tail[b]] = j;
                s->wait_tail[b] = j;
                s->n_waiting++;
                return 0;
            }
            /* last arriver: release everyone else, continue own program */
            for (int64_t w = s->wait_head[b]; w >= 0; w = s->wait_next[w]) {
                double waited = t - s->barrier_enter[w];
                s->counters[C_BARRIER] += waited;
                if (push_lat(s, LAT_BARRIER, waited)) return -1;
                s->stack[(*sp)++] = w;
                s->n_waiting--;
                s->barrier_released = 1;
            }
            s->wait_head[b] = s->wait_tail[b] = -1;
            continue;
        }
        /* K_COMM */
        s->seg_ptr[j] = row - base;
        s->state[j] = ST_BLOCK;
        if (s->runnable[j]) idx_remove(s, j);
        return issue_comm(s, j, row, t);
    }
}

/* Simulator._advance: barrier cascades through a LIFO work queue */
static int advance(ns_state *s, int64_t i, double t) {
    int64_t sp = 0;
    s->stack[sp++] = i;
    while (sp) {
        int64_t j = s->stack[--sp];
        if (advance_one(s, j, t, &sp)) return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* lifecycle */

void ns_free(ns_state *s) {
    free(s->heap_t);
    free(s->heap_id);
    free(s->wait_head);
    free(s->wait_tail);
    free(s->wait_next);
    free(s->run_idx);
    free(s->rate);
    free(s->ttf);
    free(s->fin);
    free(s->due);
    free(s->stack);
    free(s->seen);
    free(s->resp.v);
    s->resp.v = NULL;
    for (int k = 0; k < N_LAT; k++) {
        free(s->lat[k].v);
        s->lat[k].v = NULL;
    }
    s->heap_t = s->rate = s->ttf = NULL;
    s->heap_id = s->wait_head = s->wait_tail = s->wait_next = NULL;
    s->run_idx = s->fin = s->due = s->stack = NULL;
    s->seen = NULL;
}

/* Allocate scratch and load the initial calendar and barrier waiters.
   Every pointer ns_free releases must be NULL on entry. */
int ns_init(ns_state *s) {
    size_t n = (size_t)s->n_threads + 1;
    size_t nb = (size_t)s->n_barriers + 1;
    s->cap_heap = s->n_init_heap + 16;
    s->heap_t = malloc((size_t)s->cap_heap * sizeof(double));
    s->heap_id = malloc((size_t)s->cap_heap * sizeof(int64_t));
    s->wait_head = malloc(nb * sizeof(int64_t));
    s->wait_tail = malloc(nb * sizeof(int64_t));
    s->wait_next = malloc(n * sizeof(int64_t));
    s->run_idx = malloc(n * sizeof(int64_t));
    s->rate = malloc(n * sizeof(double));
    s->ttf = malloc(n * sizeof(double));
    s->fin = malloc(n * sizeof(int64_t));
    s->due = malloc(n * sizeof(int64_t));
    s->stack = malloc(n * sizeof(int64_t));
    s->seen = calloc(n, 1);
    if (!s->heap_t || !s->heap_id || !s->wait_head || !s->wait_tail
        || !s->wait_next || !s->run_idx || !s->rate || !s->ttf || !s->fin
        || !s->due || !s->stack || !s->seen) {
        ns_free(s);
        return -1;
    }
    s->n_heap = 0;
    for (int64_t k = 0; k < s->n_init_heap; k++)
        heap_push(s, s->init_heap_t[k], s->init_heap_id[k]);
    for (int64_t b = 0; b < (int64_t)nb; b++)
        s->wait_head[b] = s->wait_tail[b] = -1;
    s->n_waiting = 0;
    for (int64_t k = 0; k < s->n_init_wait; k++) {
        int64_t b = s->init_wait_bar[k], j = s->init_wait_tid[k];
        s->wait_next[j] = -1;
        if (s->wait_tail[b] < 0) s->wait_head[b] = j;
        else s->wait_next[s->wait_tail[b]] = j;
        s->wait_tail[b] = j;
        s->n_waiting++;
    }
    s->dirty = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Simulator.run, single-group branch */

int ns_run(ns_state *s) {
    double *cnt = s->counters;
    while (s->n_done < s->n_threads) {
        if (flush_due(s)) return RC_FLUSH;
        s->steps++;
        if (s->steps > s->max_steps) return RC_MAX_STEPS;

        /* 1. deliver due wake-ups / arrivals (ascending thread id) */
        int64_t n_due = pop_due(s, s->t + EPS);
        if (n_due) {
            for (int64_t k = 0; k < n_due; k++) {
                int64_t j = s->due[k];
                if (s->state[j] != ST_PRE && s->blocked_cause[j] == CAUSE_IO
                    && s->is_disk_io[j])
                    s->outstanding_disk--;
                s->wake[j] = INFINITY;
                if (advance(s, j, s->t)) return RC_NOMEM;
            }
            continue;
        }

        /* 2. nothing runnable: jump to the next wake-up */
        int64_t n_run = s->n_run;
        if (n_run == 0) {
            double next_wake = next_time(s);
            if (!isfinite(next_wake)) return RC_DEADLOCK;
            if (next_wake > s->t) s->t = next_wake; /* max(t, next_wake) */
            continue;
        }

        /* 3. processor-sharing rates from the cached record */
        if (!s->rec_ok[n_run]) {
            s->steps--; /* this iteration reruns once Python filled it */
            s->need_record = n_run;
            return RC_RECORD;
        }
        const double *r = s->rec + n_run * R_N;
        idx_refresh(s);
        const int64_t m = s->n_idx;
        const int64_t *idx = s->run_idx;
        double dt_finish = 0.0;
        for (int64_t k = 0; k < m; k++) {
            int64_t i = idx[k];
            double cont = 1.0 + s->gm[i] * r[R_CFAC];
            double slow = s->platform_penalty[i] * cont;
            slow *= r[R_MIG];
            slow *= s->thrash;
            double rate = r[R_NUM] / slow;
            double ttf = s->remaining[i] / rate;
            s->rate[k] = rate;
            s->ttf[k] = ttf;
            /* ndarray.min(): NaN propagates */
            if (k == 0 || (!isnan(dt_finish) && (isnan(ttf) || ttf < dt_finish)))
                dt_finish = ttf;
        }
        double to_wake = next_time(s) - s->t;
        double dt = to_wake < dt_finish ? to_wake : dt_finish; /* min() */
        if (dt < 0) dt = 0.0;

        /* 4. advance and account */
        if (dt > 0) {
            for (int64_t k = 0; k < m; k++)
                s->remaining[idx[k]] -= s->rate[k] * dt;
            double busy_dt = r[R_BUSY] * dt;
            double e = r[R_EV] * dt;
            cnt[C_BUSY] += busy_dt;
            cnt[C_USEFUL] += r[R_USEFUL] * dt;
            cnt[C_EVENTS] += e;
            cnt[C_MIG] += e * s->p_mig;
            cnt[C_CTX] += e * s->ctx_cost;
            cnt[C_CGROUP] += r[R_STEADY] * dt + e * s->cgsw;
            cnt[C_MIGTIME] += busy_dt * r[R_MIGFAC];
            cnt[C_BG] += r[R_BG] * dt;
            cnt[C_WAIT] += r[R_WAIT] * dt;
            int64_t b = s->rec_bucket[n_run];
            if (!s->ts_touched[b]) {
                s->ts_touched[b] = 1;
                s->ts_order[s->n_ts_order++] = b;
            }
            s->ts_weight[b] += busy_dt;
            s->t += dt;
            if (s->t > s->max_time) return RC_MAX_TIME;
        }

        /* 5. complete finished compute segments, ascending thread id */
        double lim = dt + EPS;
        int64_t n_fin = 0;
        for (int64_t k = 0; k < m; k++)
            if (s->ttf[k] <= lim) s->fin[n_fin++] = idx[k];
        for (int64_t k = 0; k < n_fin; k++) {
            int64_t j = s->fin[k];
            s->remaining[j] = 0.0;
            if (advance(s, j, s->t)) return RC_NOMEM;
        }
    }
    return RC_DONE;
}
