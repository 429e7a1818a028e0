/* Compiled cycle-loop kernel for the fast path.
 *
 * This is a C transliteration of pipeline/core.py's `CoreModel._run` (the
 * executable spec) over the precomputed trace plane: the sequential
 * dispatch/commit/recovery state machine, with the memory hierarchy, store
 * sets, and the supported value predictors (LVP / stride / 2D-stride /
 * VTAGE / oracle) implemented over flat arrays.  Branch prediction is NOT
 * here: redirect codes and scrambled keys come precomputed on the trace
 * plane (pipeline/precompute.py).
 *
 * Bit-exactness contract: every arithmetic statement mirrors the Python
 * model.  Cycles and addresses are int64 (the Python caller refuses traces
 * whose pc/addr reach 2^62, so int64 arithmetic is exact, including the
 * negative intermediate strides the prefetcher can produce); predictor
 * values and hash keys are uint64 (Python masks to 64 bits, so C wraparound
 * is identical).  Python floor division/modulo on possibly-negative
 * operands is reproduced by pydiv/pymod.
 *
 * The kernel touches ONLY caller-provided arrays (no allocation): Python
 * owns every buffer, hands over the predictor's tables as a new block
 * before the call, and turns the final arrays into model objects when a
 * caller first reads them, so post-run observable state matches the spec
 * loop's.  Every run starts from a fresh memory hierarchy, store sets and
 * unit pools: reset_state() initialises the arrays the kernel reads
 * before writing, so the caller allocates them uninitialised.  The
 * bandwidth windows are process-lifetime scratch: the kernel hands them
 * back as it got them, every stamp -1, resetting only the slots it
 * stamped.
 *
 * Failure is always safe: any unsupported situation the Python-side guards
 * missed returns a nonzero error before results are consumed, and the
 * caller records `kernel-error:<code>` and runs the spec loop (predictor
 * arrays are copies).
 *
 * Build: cc -O2 -shared -fPIC -o _ckernel.so _ckernel.c   (see ckernel.py)
 */

#include <stdint.h>
#include <string.h>

#define KERNEL_ABI_VERSION 3

/* Per-cycle bandwidth counts live in stamped circular windows instead of
 * dicts; BW_WINDOW bounds how far ahead of the watermark a grant may probe
 * (error 2 if exceeded: a grant 2^17 cycles past the watermark, which the
 * bounded per-uop latencies rule out in practice). */
#define BW_WINDOW_BITS 17
#define BW_WINDOW ((int64_t)1 << BW_WINDOW_BITS)
#define BW_MASK (BW_WINDOW - 1)

#define ERR_OK 0
#define ERR_ABI 1
#define ERR_BW_WINDOW 2
#define ERR_BAD_ARG 3

/* Op classes (repro.isa.uop.OpClass; pinned by ckernel.py at load time). */
#define OP_LOAD 6
#define OP_STORE 7
#define N_CLASSES 13

#define NEVER ((int64_t)1 << 62)
#define PRUNE_MASK 4095

typedef struct {
    int64_t abi_version;

    /* ---- trace columns (packed schema dtypes) ---- */
    int64_t n;
    int64_t warmup;
    const int64_t *seqs;
    const uint64_t *pcs;
    const uint8_t *ops;
    const int16_t *dsts;       /* -1 = no destination */
    const uint64_t *values;
    const uint64_t *mem_addrs;
    const uint16_t *mem_sizes;
    const uint8_t *takens;
    const uint8_t *dst_is_fp;
    const int64_t *src_offsets; /* CSR, n + 1 entries */
    const int16_t *src_flat;

    /* ---- trace plane ---- */
    const uint8_t *redirect;   /* 0 none / 1 execute / 2 decode */
    const uint64_t *scr_pkey;  /* scramble(pkey) per uop */
    const uint64_t *pkeys;

    /* ---- core config ---- */
    int64_t fetch_width, taken_width, issue_width, commit_width;
    int64_t frontend, backend, redirect_extra, decode_redirect_depth;
    int64_t fq_size, rob_size, iq_size, lq_size, sq_size;
    int64_t int_prf_size, fp_prf_size;
    int64_t vp_write_ports;    /* -1 = unlimited */
    int64_t vp_all_scope;
    int64_t reissue;
    int64_t lookahead_cap;
    int64_t sbuf_capacity;     /* sq_entries + 16 (deque maxlen) */

    /* ---- functional units ---- */
    const int64_t *fu_lat;     /* [N_CLASSES] */
    const int64_t *fu_occ;     /* [N_CLASSES] */
    const int64_t *fu_pool;    /* [N_CLASSES] -> pool id */
    const int64_t *pool_units; /* [n_pools] */
    int64_t n_pools;
    int64_t *pool_heap;        /* concatenated free-server heaps (reset) */

    /* ---- bandwidth limiter windows (stamps -1 on entry and on return;
     *      counts uninitialised) ---- */
    int64_t *bw_fetch_stamp, *bw_fetch_count;
    int64_t *bw_taken_stamp, *bw_taken_count;
    int64_t *bw_issue_stamp, *bw_issue_count;
    int64_t *bw_vpw_stamp, *bw_vpw_count;   /* NULL unless vp_write_ports */

    /* ---- window rings (capacity = size) ---- */
    int64_t *fq_ring, *rob_ring, *lq_ring, *sq_ring;
    int64_t *int_prf_ring, *fp_prf_ring;
    int64_t *iq_heap;

    /* ---- store buffer ring: 6 parallel arrays of sbuf_capacity ---- */
    int64_t *sb_seq, *sb_start, *sb_end, *sb_ready, *sb_commit, *sb_pc;

    /* ---- train queue (n entries, never wraps) ---- */
    int64_t *tq_commit;
    int32_t *tq_i;
    uint64_t *tq_value;
    int8_t *tq_provider;       /* VTAGE provider rank */
    int8_t *tq_eff;            /* VTAGE effective rank */
    int8_t *tq_has;            /* lookup hit flag (stride/LVP) */

    /* ---- memory hierarchy (fresh; see reset_state) ---- */
    /* per cache: lines [sets*ways], fill [sets*ways], count [sets] (reset),
       mshr heap [mshrs + 1]; lines, fill and heap are read only below
       their live lengths */
    int64_t l1i_sets, l1i_ways, l1i_shift, l1i_lat, l1i_mshrs;
    int64_t *l1i_lines, *l1i_fill, *l1i_count, *l1i_mshr;
    int64_t l1d_sets, l1d_ways, l1d_shift, l1d_lat, l1d_mshrs;
    int64_t *l1d_lines, *l1d_fill, *l1d_count, *l1d_mshr;
    int64_t l2_sets, l2_ways, l2_shift, l2_lat, l2_mshrs;
    int64_t *l2_lines, *l2_fill, *l2_count, *l2_mshr;
    int64_t dram_base, dram_row_penalty, dram_max;
    int64_t dram_banks, dram_row_bytes, dram_channel_cycles;
    int64_t *dram_open_rows;   /* [banks] reset to -1 */
    int64_t *dram_bank_free;   /* [banks] reset to 0 */
    int64_t pf_index_bits, pf_degree, pf_distance;
    int64_t *pf_pcs;           /* [1 << pf_index_bits] reset to -1 */
    int64_t *pf_last, *pf_stride, *pf_conf;   /* reset to 0 */

    /* ---- store sets (fresh; reset to -1) ---- */
    int64_t ssit_bits, lfst_entries;
    int64_t *ssit, *lfst;

    /* ---- predictor ---- */
    int64_t ptype;             /* 0 none 1 oracle 2 lvp 3 stride 4 vtage */
    int64_t conf_kind;         /* 0 stock saturating, 1 FPC */
    int64_t conf_max_level;
    const int64_t *fpc_prob;   /* [conf_max_level] */
    uint64_t fpc_taps, fpc_state;
    /* LVP / stride table (entries = tbl_mask + 1) */
    int64_t tbl_mask;
    uint64_t *tbl_tags;
    uint8_t *tbl_tag_valid;
    uint64_t *tbl_values;      /* LVP values / stride last */
    int64_t *tbl_conf;
    int64_t two_delta;
    uint64_t *st_stride;       /* last delta */
    uint64_t *st_stride2;      /* predicting delta (= st_stride if classic) */
    uint64_t *st_spec_value;
    uint8_t *st_spec_has;
    int64_t *st_inflight;
    /* VTAGE (flattened comp-major: comp c entry e at c*entries + e) */
    int64_t vt_ncomp, vt_entries, vt_base_mask;
    uint64_t *vt_base_values;
    int64_t *vt_base_conf;
    int64_t *vt_tags;          /* init -1 */
    uint64_t *vt_values;
    int64_t *vt_conf;
    int8_t *vt_useful;
    const int32_t *vp_idx;     /* [ncomp * n] plane indices */
    const int32_t *vp_tag;     /* [ncomp * n] plane tags */
    uint64_t vt_taps, vt_state;

    /* ---- outputs ---- */
    int64_t *out;              /* [N_OUT] */
} KernelArgs;

/* out[] slots (mirrored in ckernel.py) */
enum {
    O_ERROR = 0,
    O_N_UOPS, O_CYCLES,
    O_COND_BRANCHES, O_BRANCH_MISP, O_BTB_REDIRECTS,
    O_VP_ELIGIBLE, O_VP_PREDICTED, O_VP_USED, O_VP_CORRECT_USED,
    O_VP_WRONG_USED, O_VP_SQUASHES, O_VP_HARMLESS, O_VP_REISSUES,
    O_VP_WRITE_DELAYED, O_MEM_VIOLATIONS,
    O_ROB_STALLS, O_IQ_STALLS,
    O_L1I_HITS, O_L1I_MISSES, O_L1I_MSHR_STALLS, O_L1I_MSHR_N,
    O_L1D_HITS, O_L1D_MISSES, O_L1D_MSHR_STALLS, O_L1D_MSHR_N,
    O_L2_HITS, O_L2_MISSES, O_L2_MSHR_STALLS, O_L2_MSHR_N,
    O_DRAM_REQUESTS, O_DRAM_ROW_HITS, O_DRAM_CHANNEL_FREE,
    O_PF_ISSUED,
    O_SS_VIOLATIONS, O_SS_NEXT_SSID,
    O_VT_ALLOCATIONS,
    O_FPC_STATE, O_VT_STATE,
    N_OUT
};

/* ---------------------------------------------------------------------- */

static inline uint64_t scramble64(uint64_t x) {
    x ^= x >> 33;
    x *= 0x9E3779B97F4A7C15ULL;
    x ^= x >> 29;
    x *= 0xC2B2AE3D27D4EB4FULL;
    x ^= x >> 32;
    return x;
}

static inline uint64_t lfsr_step(uint64_t state, uint64_t taps) {
    uint64_t lsb = state & 1;
    state >>= 1;
    if (lsb)
        state ^= taps;
    return state;
}

/* Python floor division / modulo for possibly-negative operands. */
static inline int64_t pydiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

static inline int64_t pymod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

static inline int64_t imax(int64_t a, int64_t b) { return a > b ? a : b; }

/* ---- int64 min-heap ---------------------------------------------------- */

static void heap_push(int64_t *h, int64_t *n, int64_t v) {
    int64_t i = (*n)++;
    h[i] = v;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h[p] <= h[i])
            break;
        int64_t t = h[p]; h[p] = h[i]; h[i] = t;
        i = p;
    }
}

static void heap_siftdown(int64_t *h, int64_t n) {
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, r = l + 1, m = i;
        if (l < n && h[l] < h[m]) m = l;
        if (r < n && h[r] < h[m]) m = r;
        if (m == i)
            break;
        int64_t t = h[m]; h[m] = h[i]; h[i] = t;
        i = m;
    }
}

static int64_t heap_pop(int64_t *h, int64_t *n) {
    int64_t top = h[0];
    h[0] = h[--(*n)];
    heap_siftdown(h, *n);
    return top;
}

static inline void heap_replace(int64_t *h, int64_t n, int64_t v) {
    h[0] = v;
    heap_siftdown(h, n);
}

/* ---- caches ------------------------------------------------------------ */

typedef struct {
    int64_t set_mask, ways, shift, lat, mshrs;
    int64_t *lines, *fill, *count, *mshr;
    int64_t mshr_n;
    int64_t hits, misses, mshr_stalls;
} CCache;

typedef struct KCtx KCtx;

struct KCtx {
    const KernelArgs *a;
    CCache l1i, l1d, l2;
    /* DRAM */
    int64_t channel_free;
    int64_t dram_requests, dram_row_hits;
    /* prefetcher */
    int64_t pf_mask, pf_issued;
    /* store sets */
    int64_t ssit_mask, next_ssid, ss_violations;
    /* confidence + LFSRs */
    uint64_t fpc_state, vt_state;
    int64_t vt_allocations;
    int64_t mem_violations_measured;
    int64_t bw_hi;             /* latest cycle any window stamped, or -1 */
    int64_t error;
};

/* Probe for a hit with LRU move-to-front; -2 = miss. */
static int64_t cache_try_hit(CCache *c, int64_t line, int64_t cycle) {
    int64_t s = line & c->set_mask;
    int64_t *ws = c->lines + s * c->ways;
    int64_t *fs = c->fill + s * c->ways;
    int64_t cnt = c->count[s];
    for (int64_t w = 0; w < cnt; w++) {
        if (ws[w] == line) {
            int64_t fv = fs[w];
            if (w != 0) {
                for (int64_t k = w; k > 0; k--) {
                    ws[k] = ws[k - 1];
                    fs[k] = fs[k - 1];
                }
                ws[0] = line;
                fs[0] = fv;
            }
            c->hits++;
            if (fv > cycle)
                return fv + 1;   /* line still being filled */
            return cycle + c->lat;
        }
    }
    return -2;
}

static void cache_install(CCache *c, int64_t line, int64_t ready) {
    int64_t s = line & c->set_mask;
    int64_t *ws = c->lines + s * c->ways;
    int64_t *fs = c->fill + s * c->ways;
    int64_t cnt = c->count[s];
    int64_t top = cnt < c->ways ? cnt : c->ways - 1;
    for (int64_t k = top; k > 0; k--) {
        ws[k] = ws[k - 1];
        fs[k] = fs[k - 1];
    }
    ws[0] = line;
    fs[0] = ready;
    if (cnt < c->ways)
        c->count[s] = cnt + 1;
}

static int cache_present(CCache *c, int64_t line) {
    int64_t s = line & c->set_mask;
    int64_t *ws = c->lines + s * c->ways;
    int64_t cnt = c->count[s];
    for (int64_t w = 0; w < cnt; w++)
        if (ws[w] == line)
            return 1;
    return 0;
}

static int64_t mshr_admit(CCache *c, int64_t cycle) {
    while (c->mshr_n && c->mshr[0] <= cycle)
        heap_pop(c->mshr, &c->mshr_n);
    if (c->mshr_n >= c->mshrs) {
        c->mshr_stalls++;
        return heap_pop(c->mshr, &c->mshr_n);
    }
    return cycle;
}

static int64_t dram_read(KCtx *x, int64_t addr, int64_t cycle) {
    const KernelArgs *a = x->a;
    x->dram_requests++;
    int64_t row = pydiv(addr, a->dram_row_bytes);
    int64_t bank = pymod(row, a->dram_banks);
    int64_t start = cycle;
    if (a->dram_bank_free[bank] > start) start = a->dram_bank_free[bank];
    if (x->channel_free > start) start = x->channel_free;
    int64_t latency = a->dram_base;
    if (a->dram_open_rows[bank] == row) {
        x->dram_row_hits++;
    } else {
        latency += a->dram_row_penalty;
        a->dram_open_rows[bank] = row;
    }
    int64_t done = start + latency;
    if (done > cycle + a->dram_max) done = cycle + a->dram_max;
    if (done < cycle + a->dram_base) done = cycle + a->dram_base;
    a->dram_bank_free[bank] = done;
    x->channel_free = imax(x->channel_free, start) + a->dram_channel_cycles;
    return done;
}

static int64_t l2_access(KCtx *x, int64_t addr, int64_t cycle) {
    CCache *c = &x->l2;
    int64_t line = addr >> c->shift;
    int64_t hit = cache_try_hit(c, line, cycle);
    if (hit != -2)
        return hit;
    c->misses++;
    int64_t start = mshr_admit(c, cycle);
    int64_t ready = dram_read(x, line << c->shift, start + c->lat);
    cache_install(c, line, ready);
    heap_push(c->mshr, &c->mshr_n, ready);
    return ready;
}

/* MemoryHierarchy._l1_fill_handler: L2 access + prefetcher training. */
static int64_t l1_fill(KCtx *x, int64_t line_addr, int64_t cycle, int64_t pc) {
    const KernelArgs *a = x->a;
    int64_t ready = l2_access(x, line_addr, cycle);
    int64_t idx = (int64_t)(scramble64((uint64_t)pc) & (uint64_t)x->pf_mask);
    if (a->pf_pcs[idx] != pc) {
        a->pf_pcs[idx] = pc;
        a->pf_last[idx] = line_addr;
        a->pf_stride[idx] = 0;
        a->pf_conf[idx] = 0;
        return ready;
    }
    int64_t stride = line_addr - a->pf_last[idx];
    if (stride != 0 && stride == a->pf_stride[idx]) {
        if (a->pf_conf[idx] < 3)
            a->pf_conf[idx]++;
    } else if (stride != a->pf_stride[idx]) {
        if (a->pf_conf[idx] > 0)
            a->pf_conf[idx]--;
    }
    if (a->pf_conf[idx] >= 2 && stride != 0) {
        int64_t base = line_addr + a->pf_distance * stride;
        int64_t fill_ready = cycle + a->dram_base;
        for (int64_t k = 0; k < a->pf_degree; k++) {
            int64_t pf_addr = base + k * stride;
            x->pf_issued++;
            int64_t pf_line = pf_addr >> x->l2.shift;
            if (!cache_present(&x->l2, pf_line))
                cache_install(&x->l2, pf_line, fill_ready);
        }
    }
    a->pf_stride[idx] = stride;
    a->pf_last[idx] = line_addr;
    return ready;
}

static int64_t l1_access(KCtx *x, CCache *c, int64_t addr, int64_t cycle,
                         int64_t pc) {
    int64_t line = addr >> c->shift;
    int64_t hit = cache_try_hit(c, line, cycle);
    if (hit != -2)
        return hit;
    c->misses++;
    int64_t start = mshr_admit(c, cycle);
    int64_t ready = l1_fill(x, line << c->shift, start + c->lat, pc);
    cache_install(c, line, ready);
    heap_push(c->mshr, &c->mshr_n, ready);
    return ready;
}

/* ---- store sets -------------------------------------------------------- */

static inline int64_t ssit_index(KCtx *x, int64_t pc) {
    return (int64_t)(scramble64((uint64_t)pc) & (uint64_t)x->ssit_mask);
}

static void train_violation(KCtx *x, int64_t load_pc, int64_t store_pc) {
    const KernelArgs *a = x->a;
    x->ss_violations++;
    int64_t li = ssit_index(x, load_pc);
    int64_t si = ssit_index(x, store_pc);
    int64_t ls = a->ssit[li], ss = a->ssit[si];
    if (ls < 0 && ss < 0) {
        int64_t ssid = x->next_ssid;
        x->next_ssid = pymod(x->next_ssid + 1, a->lfst_entries);
        a->ssit[li] = ssid;
        a->ssit[si] = ssid;
    } else if (ls < 0) {
        a->ssit[li] = ss;
    } else if (ss < 0) {
        a->ssit[si] = ls;
    } else {
        int64_t winner = ls < ss ? ls : ss;
        a->ssit[li] = winner;
        a->ssit[si] = winner;
    }
}

/* ---- confidence -------------------------------------------------------- */

static inline int64_t conf_on_correct(KCtx *x, int64_t level) {
    const KernelArgs *a = x->a;
    if (level >= a->conf_max_level)
        return level;
    if (a->conf_kind == 0)
        return level + 1;
    int64_t p = a->fpc_prob[level];
    if (p == 0)
        return level + 1;           /* chance(0): no LFSR step */
    x->fpc_state = lfsr_step(x->fpc_state, a->fpc_taps);
    if ((x->fpc_state & ((1ULL << p) - 1)) == 0)
        return level + 1;
    return level;
}

/* on_incorrect is 0 for all supported policies. */

/* ---- bandwidth limiters ------------------------------------------------ */

static inline int64_t bw_grant(KCtx *x, int64_t *stamp, int64_t *count,
                               int64_t width, int64_t cycle, int64_t floor_v) {
    for (;;) {
        if (cycle - floor_v >= BW_WINDOW) {
            x->error = ERR_BW_WINDOW;
            return cycle;
        }
        int64_t slot = cycle & BW_MASK;
        int64_t cnt = (stamp[slot] == cycle) ? count[slot] : 0;
        if (cnt < width) {
            stamp[slot] = cycle;
            count[slot] = cnt + 1;
            if (cycle > x->bw_hi)
                x->bw_hi = cycle;
            return cycle;
        }
        cycle++;
    }
}

/* Return every stamp to -1.  Grants land on cycles in [0, bw_hi], so only
 * slots up to bw_hi (all of them once it reaches the window) were stamped;
 * counts are read only under a matching stamp and need no reset. */
static void bw_reset(const KCtx *x) {
    const KernelArgs *a = x->a;
    int64_t top = x->bw_hi < BW_WINDOW ? x->bw_hi + 1 : BW_WINDOW;
    int64_t *stamps[4] = {a->bw_fetch_stamp, a->bw_taken_stamp,
                          a->bw_issue_stamp, a->bw_vpw_stamp};
    for (int w = 0; w < 4; w++) {
        if (stamps[w] == NULL)
            continue;
        for (int64_t s = 0; s < top; s++)
            stamps[w][s] = -1;
    }
}

/* ---- VTAGE helpers ----------------------------------------------------- */

static void vt_train_tagged(KCtx *x, int64_t c, int64_t idx, uint64_t actual) {
    const KernelArgs *a = x->a;
    int64_t e = c * a->vt_entries + idx;
    if (a->vt_values[e] == actual) {
        a->vt_conf[e] = conf_on_correct(x, a->vt_conf[e]);
        a->vt_useful[e] = 1;
    } else {
        if (a->vt_conf[e] == 0)
            a->vt_values[e] = actual;
        a->vt_conf[e] = 0;          /* on_incorrect */
        a->vt_useful[e] = 0;
    }
}

static void vt_train_base(KCtx *x, int64_t base_idx, uint64_t actual) {
    const KernelArgs *a = x->a;
    if (a->vt_base_values[base_idx] == actual) {
        a->vt_base_conf[base_idx] = conf_on_correct(x, a->vt_base_conf[base_idx]);
    } else {
        if (a->vt_base_conf[base_idx] == 0)
            a->vt_base_values[base_idx] = actual;
        a->vt_base_conf[base_idx] = 0;
    }
}

/* Initialise every array the run reads before writing it: unit pools,
 * cache set counts, DRAM banks, prefetcher and store-set tables.  All-ones
 * bytes are -1. */
static void reset_state(const KernelArgs *a) {
    int64_t units = 0;
    for (int64_t p = 0; p < a->n_pools; p++)
        units += a->pool_units[p];
    memset(a->pool_heap, 0, (size_t)units * sizeof(int64_t));
    memset(a->l1i_count, 0, (size_t)a->l1i_sets * sizeof(int64_t));
    memset(a->l1d_count, 0, (size_t)a->l1d_sets * sizeof(int64_t));
    memset(a->l2_count, 0, (size_t)a->l2_sets * sizeof(int64_t));
    memset(a->dram_open_rows, 0xFF, (size_t)a->dram_banks * sizeof(int64_t));
    memset(a->dram_bank_free, 0, (size_t)a->dram_banks * sizeof(int64_t));
    size_t pf = ((size_t)1 << a->pf_index_bits) * sizeof(int64_t);
    memset(a->pf_pcs, 0xFF, pf);
    memset(a->pf_last, 0, pf);
    memset(a->pf_stride, 0, pf);
    memset(a->pf_conf, 0, pf);
    memset(a->ssit, 0xFF, ((size_t)1 << a->ssit_bits) * sizeof(int64_t));
    memset(a->lfst, 0xFF, (size_t)a->lfst_entries * sizeof(int64_t));
}

/* ---------------------------------------------------------------------- */

int64_t repro_kernel_abi_version(void) { return KERNEL_ABI_VERSION; }

int64_t repro_kernel_run(const KernelArgs *a) {
    if (a->abi_version != KERNEL_ABI_VERSION) {
        a->out[O_ERROR] = ERR_ABI;
        return ERR_ABI;
    }
    if (a->n_pools > 8 || a->vt_ncomp > 16 || a->n < 1) {
        a->out[O_ERROR] = ERR_BAD_ARG;
        return ERR_BAD_ARG;
    }
    reset_state(a);
    KCtx ctx;
    KCtx *x = &ctx;
    memset(x, 0, sizeof(*x));
    x->a = a;
    x->l1i = (CCache){a->l1i_sets - 1, a->l1i_ways, a->l1i_shift, a->l1i_lat,
                      a->l1i_mshrs, a->l1i_lines, a->l1i_fill, a->l1i_count,
                      a->l1i_mshr, 0, 0, 0, 0};
    x->l1d = (CCache){a->l1d_sets - 1, a->l1d_ways, a->l1d_shift, a->l1d_lat,
                      a->l1d_mshrs, a->l1d_lines, a->l1d_fill, a->l1d_count,
                      a->l1d_mshr, 0, 0, 0, 0};
    x->l2 = (CCache){a->l2_sets - 1, a->l2_ways, a->l2_shift, a->l2_lat,
                     a->l2_mshrs, a->l2_lines, a->l2_fill, a->l2_count,
                     a->l2_mshr, 0, 0, 0, 0};
    x->pf_mask = ((int64_t)1 << a->pf_index_bits) - 1;
    x->ssit_mask = ((int64_t)1 << a->ssit_bits) - 1;
    x->fpc_state = a->fpc_state;
    x->vt_state = a->vt_state;
    x->bw_hi = -1;

    const int64_t n = a->n;
    const int64_t warmup = a->warmup;
    const int64_t fetch_width = a->fetch_width;
    const int64_t taken_width = a->taken_width;
    const int64_t issue_width = a->issue_width;
    const int64_t commit_width = a->commit_width;
    const int64_t frontend = a->frontend;
    const int64_t backend = a->backend;
    const int64_t redirect_extra = a->redirect_extra;
    const int64_t decode_redirect_depth = a->decode_redirect_depth;
    const int64_t fq_size = a->fq_size, rob_size = a->rob_size;
    const int64_t iq_size = a->iq_size, lq_size = a->lq_size;
    const int64_t sq_size = a->sq_size;
    const int64_t int_prf_size = a->int_prf_size;
    const int64_t fp_prf_size = a->fp_prf_size;
    const int64_t lookahead_cap = a->lookahead_cap;
    const int64_t sbuf_cap = a->sbuf_capacity;
    const int reissue = (int)a->reissue;
    const int vp_all_scope = (int)a->vp_all_scope;
    const int64_t ptype = a->ptype;
    const int have_predictor = ptype != 0;

    /* dispatch/commit bandwidth: monotone (cycle, used) pairs */
    int64_t dbw_cycle = -1, dbw_used = 0, cbw_cycle = -1, cbw_used = 0;

    /* window rings */
    int64_t fq_head = 0, fq_len = 0;
    int64_t rob_head = 0, rob_len = 0;
    int64_t lq_head = 0, lq_len = 0;
    int64_t sq_head = 0, sq_len = 0;
    int64_t ipr_head = 0, ipr_len = 0;
    int64_t fpr_head = 0, fpr_len = 0;
    int64_t iq_len = 0;
    int64_t rob_stalls = 0, iq_stalls = 0;

    /* functional-unit pool heaps (concatenated; zero-initialised) */
    int64_t *pool_base[8];
    int64_t pool_n[8];
    {
        int64_t off = 0;
        for (int64_t p = 0; p < a->n_pools; p++) {
            pool_base[p] = a->pool_heap + off;
            pool_n[p] = a->pool_units[p];
            off += a->pool_units[p];
        }
    }

    int64_t reg_ready[64] = {0};
    int64_t reg_spec_commit[64] = {0};

    /* store buffer ring */
    int64_t sb_head = 0, sb_len = 0;

    /* train queue */
    int64_t tq_head = 0, tq_tail = 0;
    int64_t next_train = NEVER;

    int64_t fetch_resume = 0, line_ready = 0, current_line = -1;
    int64_t last_fetch = 0, last_dispatch = 0, last_commit = 0;
    int64_t measure_start_commit = -1;

    int64_t n_uops_meas = 0, cond_branches = 0;
    int64_t branch_mispredicts = 0, btb_redirects = 0;
    int64_t vp_eligible_n = 0, vp_predicted_n = 0, vp_used_n = 0;
    int64_t vp_correct_used = 0, vp_wrong_used = 0;
    int64_t vp_squashes = 0, vp_harmless_wrong = 0, vp_reissues = 0;
    int64_t vp_write_delayed = 0;

    /* limiter floors (for the BW_WINDOW safety check only) */
    int64_t fetch_floor_v = 0, issue_floor_v = 0;

    for (int64_t i = 0; i < n; i++) {
        const int64_t op = a->ops[i];
        const int64_t pc = (int64_t)a->pcs[i];
        const int64_t pc_line = pc >> 6;   /* isa.trace._LINE_SHIFT */
        const int64_t dst = a->dsts[i];
        const int is_load = op == OP_LOAD;
        const int is_store = op == OP_STORE;
        const int measured = i >= warmup;
        const int64_t branch_redirect = a->redirect[i];

        /* ---- Fetch -------------------------------------------------- */
        if (pc_line != current_line) {
            current_line = pc_line;
            int64_t floor_ = fetch_resume > last_fetch ? fetch_resume
                                                       : last_fetch;
            line_ready = l1_access(x, &x->l1i, pc, floor_, pc);
            if (line_ready <= floor_ + 1)
                line_ready = 0;
        }
        int64_t fetch = fetch_resume > line_ready ? fetch_resume : line_ready;
        if (fq_len >= fq_size) {
            int64_t oldest = a->fq_ring[fq_head];
            fq_head = (fq_head + 1) % fq_size;
            fq_len--;
            if (oldest > fetch)
                fetch = oldest;
        }
        fetch = bw_grant(x, a->bw_fetch_stamp, a->bw_fetch_count, fetch_width,
                         fetch, fetch_floor_v);
        /* is_branch == control classes 8..11 (trace._CTRL_INTS) */
        if (op >= 8 && op <= 11 && a->takens[i]) {
            fetch = bw_grant(x, a->bw_taken_stamp, a->bw_taken_count,
                             taken_width, fetch, fetch_floor_v);
        }
        if (x->error)
            break;
        last_fetch = fetch;

        /* ---- Drain committed trainings ------------------------------ */
        while (next_train <= fetch) {
            int64_t t = tq_head++;
            next_train = tq_head < tq_tail ? a->tq_commit[tq_head] : NEVER;
            const int64_t ti = a->tq_i[t];
            const uint64_t actual = a->values[ti];
            if (ptype == 2) {                       /* LVP */
                const uint64_t key = a->pkeys[ti];
                int64_t idx = (int64_t)(a->scr_pkey[ti] &
                                        (uint64_t)a->tbl_mask);
                if (!a->tbl_tag_valid[idx] || a->tbl_tags[idx] != key) {
                    a->tbl_tag_valid[idx] = 1;
                    a->tbl_tags[idx] = key;
                    a->tbl_values[idx] = actual;
                    a->tbl_conf[idx] = 0;
                } else if (a->tbl_values[idx] == actual) {
                    a->tbl_conf[idx] = conf_on_correct(x, a->tbl_conf[idx]);
                } else {
                    a->tbl_conf[idx] = 0;
                    a->tbl_values[idx] = actual;
                }
            } else if (ptype == 3) {                /* stride family */
                const uint64_t key = a->pkeys[ti];
                int64_t idx = (int64_t)(a->scr_pkey[ti] &
                                        (uint64_t)a->tbl_mask);
                const int has_pred = a->tq_has[t];
                if (has_pred) {
                    int64_t live = a->st_inflight[idx] - 1;
                    if (live <= 0) {
                        a->st_inflight[idx] = 0;
                        a->st_spec_has[idx] = 0;
                    } else {
                        a->st_inflight[idx] = live;
                    }
                }
                if (!a->tbl_tag_valid[idx] || a->tbl_tags[idx] != key) {
                    a->tbl_tag_valid[idx] = 1;
                    a->tbl_tags[idx] = key;
                    a->tbl_values[idx] = actual;   /* last */
                    a->st_stride[idx] = 0;
                    a->tbl_conf[idx] = 0;
                    a->st_spec_has[idx] = 0;
                    a->st_inflight[idx] = 0;
                } else {
                    uint64_t predicted =
                        has_pred ? a->tq_value[t]
                                 : a->tbl_values[idx] + a->st_stride2[idx];
                    if (predicted == actual)
                        a->tbl_conf[idx] = conf_on_correct(x, a->tbl_conf[idx]);
                    else
                        a->tbl_conf[idx] = 0;
                    /* _train_stride */
                    uint64_t delta = actual - a->tbl_values[idx];
                    if (a->two_delta) {
                        if (delta == a->st_stride[idx])
                            a->st_stride2[idx] = delta;
                        a->st_stride[idx] = delta;
                    } else {
                        a->st_stride[idx] = delta;   /* st_stride2 aliases */
                    }
                    if (predicted != actual) {
                        int64_t live = a->st_inflight[idx];
                        if (live > 0) {
                            a->st_spec_value[idx] =
                                actual + a->st_stride2[idx] * (uint64_t)live;
                            a->st_spec_has[idx] = 1;
                        } else {
                            a->st_spec_has[idx] = 0;
                        }
                    }
                    a->tbl_values[idx] = actual;
                }
            } else if (ptype == 4) {                /* VTAGE */
                const int64_t provider = a->tq_provider[t];
                const int64_t eff = a->tq_eff[t];
                const int64_t base_idx =
                    (int64_t)(a->scr_pkey[ti] & (uint64_t)a->vt_base_mask);
                const uint64_t predicted = a->tq_value[t];
                if (provider == 0) {
                    vt_train_base(x, base_idx, actual);
                } else {
                    int64_t c = provider - 1;
                    int64_t idx = a->vp_idx[c * n + ti];
                    int64_t e = c * a->vt_entries + idx;
                    int was_weak = a->vt_conf[e] == 0;
                    vt_train_tagged(x, c, idx, actual);
                    if (was_weak) {
                        if (eff != 0 && eff != provider) {
                            int64_t ac = eff - 1;
                            vt_train_tagged(x, ac, a->vp_idx[ac * n + ti],
                                            actual);
                        }
                        vt_train_base(x, base_idx, actual);
                    }
                }
                if (predicted != actual && provider < a->vt_ncomp) {
                    /* _allocate */
                    int64_t cands[16];
                    int64_t ncand = 0;
                    for (int64_t c = provider; c < a->vt_ncomp; c++) {
                        int64_t idx = a->vp_idx[c * n + ti];
                        if (a->vt_useful[c * a->vt_entries + idx] == 0)
                            cands[ncand++] = c;
                    }
                    if (ncand == 0) {
                        for (int64_t c = provider; c < a->vt_ncomp; c++) {
                            int64_t idx = a->vp_idx[c * n + ti];
                            a->vt_useful[c * a->vt_entries + idx] = 0;
                        }
                    } else {
                        x->vt_state = lfsr_step(x->vt_state, a->vt_taps);
                        int64_t c = cands[(int64_t)(x->vt_state %
                                                    (uint64_t)ncand)];
                        int64_t idx = a->vp_idx[c * n + ti];
                        int64_t e = c * a->vt_entries + idx;
                        a->vt_tags[e] = a->vp_tag[c * n + ti];
                        a->vt_values[e] = actual;
                        a->vt_conf[e] = 0;
                        a->vt_useful[e] = 0;
                        x->vt_allocations++;
                    }
                }
            }
            /* ptype 1 (oracle): train is a no-op; nothing queued. */
        }

        /* ---- Value prediction at fetch ------------------------------- */
        const int produces = dst >= 0 && !(op >= 8 && op <= 11);
        int prediction = 0, vp_used = 0, vp_wrong = 0;
        const int eligible =
            have_predictor && produces && (vp_all_scope || is_load);
        int64_t vt_provider = 0, vt_eff = 0;
        uint64_t vp_value = 0;
        if (eligible) {
            if (ptype == 4) {
                prediction = 1;
                const uint64_t scr = a->scr_pkey[i];
                const int64_t base_idx =
                    (int64_t)(scr & (uint64_t)a->vt_base_mask);
                int64_t provider = 0, alt = 0;
                for (int64_t c = 0; c < a->vt_ncomp; c++) {
                    int64_t idx = a->vp_idx[c * n + i];
                    if (a->vt_tags[c * a->vt_entries + idx] ==
                        a->vp_tag[c * n + i]) {
                        alt = provider;
                        provider = c + 1;
                    }
                }
                int64_t conf, eff;
                uint64_t value;
                if (provider == 0) {
                    value = a->vt_base_values[base_idx];
                    conf = a->vt_base_conf[base_idx];
                    eff = 0;
                } else {
                    int64_t c = provider - 1;
                    int64_t pidx = a->vp_idx[c * n + i];
                    int64_t e = c * a->vt_entries + pidx;
                    if (a->vt_conf[e] == 0 && a->vt_useful[e] == 0)
                        eff = alt;
                    else
                        eff = provider;
                    if (eff == 0) {
                        value = a->vt_base_values[base_idx];
                        conf = a->vt_base_conf[base_idx];
                    } else {
                        int64_t ec = eff - 1;
                        int64_t eidx = a->vp_idx[ec * n + i];
                        value = a->vt_values[ec * a->vt_entries + eidx];
                        conf = a->vt_conf[ec * a->vt_entries + eidx];
                    }
                }
                vt_provider = provider;
                vt_eff = eff;
                vp_value = value;
                if (conf >= a->conf_max_level) {
                    vp_used = 1;
                    vp_wrong = value != a->values[i];
                }
            } else if (ptype == 1) {                /* oracle */
                prediction = 1;
                vp_used = 1;
            } else {                                /* LVP / stride */
                int64_t idx = (int64_t)(a->scr_pkey[i] &
                                        (uint64_t)a->tbl_mask);
                const uint64_t key = a->pkeys[i];
                if (a->tbl_tag_valid[idx] && a->tbl_tags[idx] == key) {
                    prediction = 1;
                    uint64_t value;
                    if (ptype == 2) {
                        value = a->tbl_values[idx];
                    } else {
                        uint64_t base = a->st_spec_has[idx]
                                            ? a->st_spec_value[idx]
                                            : a->tbl_values[idx];
                        value = base + a->st_stride2[idx];
                    }
                    vp_value = value;
                    if (a->tbl_conf[idx] >= a->conf_max_level) {
                        vp_used = 1;
                        vp_wrong = value != a->values[i];
                    }
                    if (ptype == 3) {               /* speculate() */
                        a->st_spec_value[idx] = value;
                        a->st_spec_has[idx] = 1;
                        a->st_inflight[idx]++;
                    }
                }
            }
            if (measured) {
                vp_eligible_n++;
                if (prediction)
                    vp_predicted_n++;
                if (vp_used) {
                    vp_used_n++;
                    if (vp_wrong)
                        vp_wrong_used++;
                    else
                        vp_correct_used++;
                }
            }
        }

        /* ---- Dispatch ------------------------------------------------ */
        int64_t dispatch = fetch + frontend;
        if (vp_used && a->vp_write_ports >= 0) {
            int64_t write_cycle = bw_grant(x, a->bw_vpw_stamp, a->bw_vpw_count,
                                           a->vp_write_ports, fetch + 2,
                                           fetch_floor_v);
            if (x->error)
                break;
            if (write_cycle + 1 > dispatch) {
                if (measured)
                    vp_write_delayed++;
                dispatch = write_cycle + 1;
            }
        }
        if (last_dispatch > dispatch)
            dispatch = last_dispatch;
        if (rob_len >= rob_size) {
            int64_t oldest = a->rob_ring[rob_head];
            rob_head = (rob_head + 1) % rob_size;
            rob_len--;
            if (oldest > dispatch) {
                rob_stalls++;
                dispatch = oldest;
            }
        }
        if (iq_len >= iq_size) {
            int64_t soonest = heap_pop(a->iq_heap, &iq_len);
            if (soonest > dispatch) {
                iq_stalls++;
                dispatch = soonest;
            }
        }
        if (is_load) {
            if (lq_len >= lq_size) {
                int64_t oldest = a->lq_ring[lq_head];
                lq_head = (lq_head + 1) % lq_size;
                lq_len--;
                if (oldest > dispatch)
                    dispatch = oldest;
            }
        } else if (is_store) {
            if (sq_len >= sq_size) {
                int64_t oldest = a->sq_ring[sq_head];
                sq_head = (sq_head + 1) % sq_size;
                sq_len--;
                if (oldest > dispatch)
                    dispatch = oldest;
            }
        }
        if (dst >= 0) {
            if (a->dst_is_fp[i]) {
                if (fpr_len >= fp_prf_size) {
                    int64_t oldest = a->fp_prf_ring[fpr_head];
                    fpr_head = (fpr_head + 1) % fp_prf_size;
                    fpr_len--;
                    if (oldest > dispatch)
                        dispatch = oldest;
                }
            } else if (ipr_len >= int_prf_size) {
                int64_t oldest = a->int_prf_ring[ipr_head];
                ipr_head = (ipr_head + 1) % int_prf_size;
                ipr_len--;
                if (oldest > dispatch)
                    dispatch = oldest;
            }
        }
        if (dispatch > dbw_cycle) {
            dbw_cycle = dispatch;
            dbw_used = 1;
        } else if (dbw_used < fetch_width) {
            dispatch = dbw_cycle;
            dbw_used++;
        } else {
            dbw_cycle++;
            dispatch = dbw_cycle;
            dbw_used = 1;
        }
        last_dispatch = dispatch;
        a->fq_ring[(fq_head + fq_len) % fq_size] = dispatch;
        fq_len++;

        /* ---- Operand readiness --------------------------------------- */
        int64_t ready = dispatch + 1;
        int64_t spec_until = 0;
        const int64_t s0 = a->src_offsets[i], s1 = a->src_offsets[i + 1];
        if (reissue) {
            for (int64_t s = s0; s < s1; s++) {
                int64_t r = reg_ready[a->src_flat[s]];
                if (r > ready)
                    ready = r;
                int64_t sc = reg_spec_commit[a->src_flat[s]];
                if (sc > spec_until)
                    spec_until = sc;
            }
        } else {
            for (int64_t s = s0; s < s1; s++) {
                int64_t r = reg_ready[a->src_flat[s]];
                if (r > ready)
                    ready = r;
            }
        }

        int64_t wait_store_seq = -1;
        if (is_load) {
            int64_t ssid = a->ssit[ssit_index(x, pc)];
            if (ssid >= 0) {
                int64_t predicted = a->lfst[ssid];
                if (predicted >= 0) {
                    for (int64_t k = sb_len - 1; k >= 0; k--) {
                        int64_t e = (sb_head + k) % sbuf_cap;
                        if (a->sb_seq[e] == predicted) {
                            if (a->sb_ready[e] > ready)
                                ready = a->sb_ready[e];
                            wait_store_seq = predicted;
                            break;
                        }
                    }
                }
            }
        }

        /* ---- Issue + execute ----------------------------------------- */
        const int64_t pool = a->fu_pool[op];
        int64_t *free_heap = pool_base[pool];
        int64_t start = free_heap[0];
        if (ready > start)
            start = ready;
        heap_replace(free_heap, pool_n[pool], start + a->fu_occ[op]);
        int64_t issue = bw_grant(x, a->bw_issue_stamp, a->bw_issue_count,
                                 issue_width, start, issue_floor_v);
        if (x->error)
            break;
        int64_t complete;
        if (is_load) {
            /* _load_timing */
            const int64_t addr = (int64_t)a->mem_addrs[i];
            const int64_t end = addr + a->mem_sizes[i];
            const int64_t agu_done = issue + 1;
            complete = NEVER;   /* sentinel: fall through to cache */
            for (int64_t k = sb_len - 1; k >= 0; k--) {
                int64_t e = (sb_head + k) % sbuf_cap;
                if (a->sb_commit[e] <= agu_done)
                    break;
                if (a->sb_start[e] < end && addr < a->sb_end[e]) {
                    if (a->sb_ready[e] <= agu_done ||
                        a->sb_seq[e] == wait_store_seq) {
                        complete = imax(agu_done, a->sb_ready[e]) + 1;
                    } else {
                        train_violation(x, pc, a->sb_pc[e]);
                        if (measured)
                            x->mem_violations_measured++;
                        complete = -(a->sb_ready[e] + 2);
                    }
                    break;
                }
            }
            if (complete == NEVER)
                complete = l1_access(x, &x->l1d, addr, agu_done, pc);
            if (complete < 0) {
                complete = -complete;
                int64_t resume = complete + redirect_extra;
                if (resume > fetch_resume)
                    fetch_resume = resume;
            }
        } else if (is_store) {
            complete = issue + 1;
        } else {
            complete = issue + a->fu_lat[op];
        }

        /* ---- Commit -------------------------------------------------- */
        int64_t commit = complete + backend;
        if (last_commit > commit)
            commit = last_commit;
        if (commit > cbw_cycle) {
            cbw_cycle = commit;
            cbw_used = 1;
        } else if (cbw_used < commit_width) {
            commit = cbw_cycle;
            cbw_used++;
        } else {
            cbw_cycle++;
            commit = cbw_cycle;
            cbw_used = 1;
        }
        last_commit = commit;

        /* ---- Branch redirect ----------------------------------------- */
        if (branch_redirect) {
            int64_t resume;
            if (branch_redirect == 1) {
                resume = complete + redirect_extra;
                if (measured)
                    branch_mispredicts++;
            } else {
                resume = fetch + decode_redirect_depth;
                if (measured)
                    btb_redirects++;
            }
            if (resume > fetch_resume)
                fetch_resume = resume;
        }
        if (measured && op == 8)   /* BRANCH: conditional */
            cond_branches++;

        /* ---- Value prediction outcome -------------------------------- */
        int64_t consumer_ready = complete;
        int64_t producer_spec_commit = 0;
        if (eligible) {
            if (prediction) {
                if (vp_used && !vp_wrong) {
                    consumer_ready = 0;
                    producer_spec_commit = reissue ? complete : 0;
                } else if (vp_used) {
                    if (reissue) {
                        consumer_ready = complete;
                        producer_spec_commit = complete;
                        if (measured)
                            vp_reissues++;
                    } else {
                        /* _consumer_before */
                        int consumed_early = 0;
                        int64_t limit = i + 1 + lookahead_cap;
                        if (limit > n)
                            limit = n;
                        for (int64_t j = i + 1; j < limit; j++) {
                            int64_t est = fetch +
                                (j - i + fetch_width - 1) / fetch_width +
                                frontend;
                            if (est >= complete)
                                break;
                            int found = 0;
                            for (int64_t s = a->src_offsets[j];
                                 s < a->src_offsets[j + 1]; s++) {
                                if (a->src_flat[s] == dst) {
                                    found = 1;
                                    break;
                                }
                            }
                            if (found) {
                                consumed_early = 1;
                                break;
                            }
                            if (a->dsts[j] == dst)
                                break;
                        }
                        if (consumed_early) {
                            int64_t resume = commit + redirect_extra;
                            if (resume > fetch_resume)
                                fetch_resume = resume;
                            if (ptype == 3) {       /* stride on_squash */
                                int64_t entries = a->tbl_mask + 1;
                                memset(a->st_spec_has, 0, (size_t)entries);
                                memset(a->st_inflight, 0,
                                       (size_t)entries * sizeof(int64_t));
                            }
                            /* store_sets.flush_inflight() */
                            for (int64_t k = 0; k < a->lfst_entries; k++)
                                a->lfst[k] = -1;
                            sb_len = 0;             /* store_buffer.clear() */
                            sb_head = 0;
                            if (measured)
                                vp_squashes++;
                        } else if (measured) {
                            vp_harmless_wrong++;
                        }
                    }
                }
            }
            if (ptype != 1) {   /* oracle trains are no-ops: not queued */
                if (next_train == NEVER)
                    next_train = commit;
                a->tq_commit[tq_tail] = commit;
                a->tq_i[tq_tail] = (int32_t)i;
                a->tq_value[tq_tail] = vp_value;
                a->tq_provider[tq_tail] = (int8_t)vt_provider;
                a->tq_eff[tq_tail] = (int8_t)vt_eff;
                a->tq_has[tq_tail] = (int8_t)prediction;
                tq_tail++;
            }
        }

        /* ---- Register state update ----------------------------------- */
        if (dst >= 0) {
            reg_ready[dst] = consumer_ready;
            if (reissue)
                reg_spec_commit[dst] = producer_spec_commit;
        }

        /* ---- Window releases ----------------------------------------- */
        a->rob_ring[(rob_head + rob_len) % rob_size] = commit;
        rob_len++;
        heap_push(a->iq_heap, &iq_len,
                  reissue && spec_until > issue ? spec_until : issue);
        if (is_load) {
            a->lq_ring[(lq_head + lq_len) % lq_size] = commit;
            lq_len++;
        } else if (is_store) {
            a->sq_ring[(sq_head + sq_len) % sq_size] = commit;
            sq_len++;
            const int64_t addr = (int64_t)a->mem_addrs[i];
            const int64_t seq = a->seqs[i];
            if (sb_len == sbuf_cap) {   /* deque maxlen drops oldest */
                sb_head = (sb_head + 1) % sbuf_cap;
                sb_len--;
            }
            int64_t e = (sb_head + sb_len) % sbuf_cap;
            a->sb_seq[e] = seq;
            a->sb_start[e] = addr;
            a->sb_end[e] = addr + a->mem_sizes[i];
            a->sb_ready[e] = complete;
            a->sb_commit[e] = commit;
            a->sb_pc[e] = pc;
            sb_len++;
            /* store_sets.store_fetched */
            int64_t ssid = a->ssit[ssit_index(x, pc)];
            if (ssid >= 0)
                a->lfst[ssid] = seq;
            /* memory.store == memory.load for line movement */
            l1_access(x, &x->l1d, addr, commit, pc);
        }
        if (dst >= 0) {
            if (a->dst_is_fp[i]) {
                a->fp_prf_ring[(fpr_head + fpr_len) % fp_prf_size] = commit;
                fpr_len++;
            } else {
                a->int_prf_ring[(ipr_head + ipr_len) % int_prf_size] = commit;
                ipr_len++;
            }
        }

        if (measured) {
            if (measure_start_commit < 0)
                measure_start_commit = commit;
            n_uops_meas++;
        }

        /* ---- Limiter watermark advance ------------------------------- */
        if (!(i & PRUNE_MASK)) {
            if (last_dispatch > issue_floor_v)
                issue_floor_v = last_dispatch;
            int64_t ff = fetch_resume;
            if (fq_len >= fq_size) {
                int64_t oldest = a->fq_ring[fq_head];
                if (oldest > ff)
                    ff = oldest;
            }
            if (ff > fetch_floor_v)
                fetch_floor_v = ff;
        }
    }

    bw_reset(x);
    if (x->error) {
        a->out[O_ERROR] = x->error;
        return x->error;
    }

    /* Flush remaining trainings: re-run the drain with fetch = +inf. */
    while (tq_head < tq_tail) {
        int64_t t = tq_head++;
        const int64_t ti = a->tq_i[t];
        const uint64_t actual = a->values[ti];
        if (ptype == 2) {
            const uint64_t key = a->pkeys[ti];
            int64_t idx = (int64_t)(a->scr_pkey[ti] & (uint64_t)a->tbl_mask);
            if (!a->tbl_tag_valid[idx] || a->tbl_tags[idx] != key) {
                a->tbl_tag_valid[idx] = 1;
                a->tbl_tags[idx] = key;
                a->tbl_values[idx] = actual;
                a->tbl_conf[idx] = 0;
            } else if (a->tbl_values[idx] == actual) {
                a->tbl_conf[idx] = conf_on_correct(x, a->tbl_conf[idx]);
            } else {
                a->tbl_conf[idx] = 0;
                a->tbl_values[idx] = actual;
            }
        } else if (ptype == 3) {
            const uint64_t key = a->pkeys[ti];
            int64_t idx = (int64_t)(a->scr_pkey[ti] & (uint64_t)a->tbl_mask);
            const int has_pred = a->tq_has[t];
            if (has_pred) {
                int64_t live = a->st_inflight[idx] - 1;
                if (live <= 0) {
                    a->st_inflight[idx] = 0;
                    a->st_spec_has[idx] = 0;
                } else {
                    a->st_inflight[idx] = live;
                }
            }
            if (!a->tbl_tag_valid[idx] || a->tbl_tags[idx] != key) {
                a->tbl_tag_valid[idx] = 1;
                a->tbl_tags[idx] = key;
                a->tbl_values[idx] = actual;
                a->st_stride[idx] = 0;
                a->tbl_conf[idx] = 0;
                a->st_spec_has[idx] = 0;
                a->st_inflight[idx] = 0;
            } else {
                uint64_t predicted =
                    has_pred ? a->tq_value[t]
                             : a->tbl_values[idx] + a->st_stride2[idx];
                if (predicted == actual)
                    a->tbl_conf[idx] = conf_on_correct(x, a->tbl_conf[idx]);
                else
                    a->tbl_conf[idx] = 0;
                uint64_t delta = actual - a->tbl_values[idx];
                if (a->two_delta) {
                    if (delta == a->st_stride[idx])
                        a->st_stride2[idx] = delta;
                    a->st_stride[idx] = delta;
                } else {
                    a->st_stride[idx] = delta;
                }
                if (predicted != actual) {
                    int64_t live = a->st_inflight[idx];
                    if (live > 0) {
                        a->st_spec_value[idx] =
                            actual + a->st_stride2[idx] * (uint64_t)live;
                        a->st_spec_has[idx] = 1;
                    } else {
                        a->st_spec_has[idx] = 0;
                    }
                }
                a->tbl_values[idx] = actual;
            }
        } else if (ptype == 4) {
            const int64_t provider = a->tq_provider[t];
            const int64_t eff = a->tq_eff[t];
            const int64_t base_idx =
                (int64_t)(a->scr_pkey[ti] & (uint64_t)a->vt_base_mask);
            const uint64_t predicted = a->tq_value[t];
            if (provider == 0) {
                vt_train_base(x, base_idx, actual);
            } else {
                int64_t c = provider - 1;
                int64_t idx = a->vp_idx[c * n + ti];
                int64_t e = c * a->vt_entries + idx;
                int was_weak = a->vt_conf[e] == 0;
                vt_train_tagged(x, c, idx, actual);
                if (was_weak) {
                    if (eff != 0 && eff != provider) {
                        int64_t ac = eff - 1;
                        vt_train_tagged(x, ac, a->vp_idx[ac * n + ti], actual);
                    }
                    vt_train_base(x, base_idx, actual);
                }
            }
            if (predicted != actual && provider < a->vt_ncomp) {
                int64_t cands[16];
                int64_t ncand = 0;
                for (int64_t c = provider; c < a->vt_ncomp; c++) {
                    int64_t idx = a->vp_idx[c * n + ti];
                    if (a->vt_useful[c * a->vt_entries + idx] == 0)
                        cands[ncand++] = c;
                }
                if (ncand == 0) {
                    for (int64_t c = provider; c < a->vt_ncomp; c++) {
                        int64_t idx = a->vp_idx[c * n + ti];
                        a->vt_useful[c * a->vt_entries + idx] = 0;
                    }
                } else {
                    x->vt_state = lfsr_step(x->vt_state, a->vt_taps);
                    int64_t c =
                        cands[(int64_t)(x->vt_state % (uint64_t)ncand)];
                    int64_t idx = a->vp_idx[c * n + ti];
                    int64_t e = c * a->vt_entries + idx;
                    a->vt_tags[e] = a->vp_tag[c * n + ti];
                    a->vt_values[e] = actual;
                    a->vt_conf[e] = 0;
                    a->vt_useful[e] = 0;
                    x->vt_allocations++;
                }
            }
        }
    }

    int64_t *out = a->out;
    out[O_ERROR] = ERR_OK;
    out[O_N_UOPS] = n_uops_meas;
    if (measure_start_commit < 0)
        measure_start_commit = 0;
    int64_t cycles = last_commit - measure_start_commit;
    out[O_CYCLES] = cycles > 1 ? cycles : 1;
    out[O_COND_BRANCHES] = cond_branches;
    out[O_BRANCH_MISP] = branch_mispredicts;
    out[O_BTB_REDIRECTS] = btb_redirects;
    out[O_VP_ELIGIBLE] = vp_eligible_n;
    out[O_VP_PREDICTED] = vp_predicted_n;
    out[O_VP_USED] = vp_used_n;
    out[O_VP_CORRECT_USED] = vp_correct_used;
    out[O_VP_WRONG_USED] = vp_wrong_used;
    out[O_VP_SQUASHES] = vp_squashes;
    out[O_VP_HARMLESS] = vp_harmless_wrong;
    out[O_VP_REISSUES] = vp_reissues;
    out[O_VP_WRITE_DELAYED] = vp_write_delayed;
    out[O_MEM_VIOLATIONS] = x->mem_violations_measured;
    out[O_ROB_STALLS] = rob_stalls;
    out[O_IQ_STALLS] = iq_stalls;
    out[O_L1I_HITS] = x->l1i.hits;
    out[O_L1I_MISSES] = x->l1i.misses;
    out[O_L1I_MSHR_STALLS] = x->l1i.mshr_stalls;
    out[O_L1I_MSHR_N] = x->l1i.mshr_n;
    out[O_L1D_HITS] = x->l1d.hits;
    out[O_L1D_MISSES] = x->l1d.misses;
    out[O_L1D_MSHR_STALLS] = x->l1d.mshr_stalls;
    out[O_L1D_MSHR_N] = x->l1d.mshr_n;
    out[O_L2_HITS] = x->l2.hits;
    out[O_L2_MISSES] = x->l2.misses;
    out[O_L2_MSHR_STALLS] = x->l2.mshr_stalls;
    out[O_L2_MSHR_N] = x->l2.mshr_n;
    out[O_DRAM_REQUESTS] = x->dram_requests;
    out[O_DRAM_ROW_HITS] = x->dram_row_hits;
    out[O_DRAM_CHANNEL_FREE] = x->channel_free;
    out[O_PF_ISSUED] = x->pf_issued;
    out[O_SS_VIOLATIONS] = x->ss_violations;
    out[O_SS_NEXT_SSID] = x->next_ssid;
    out[O_VT_ALLOCATIONS] = x->vt_allocations;
    out[O_FPC_STATE] = (int64_t)x->fpc_state;
    out[O_VT_STATE] = (int64_t)x->vt_state;
    return ERR_OK;
}
