"""Floating-point workload kernels (SPEC FP stand-ins, Table 3).

Calibration summary (paper references in parentheses):

* wupwise — dense linear algebra; strided value streams favour 2D-Stride
  (Sec. 8.2.3: "wupwise and bzip achieve higher performance with
  2D-Stride").
* applu   — structured-grid solver; boundary-dependent coefficients and
  short periodic patterns favour VTAGE (Sec. 8.2.3).
* art     — repeated scans of fixed weight arrays that miss in L1/L2:
  predictable loads hide memory latency -> large oracle headroom and real
  gains (Fig. 3, Fig. 4).
* gamess  — phase-switching coefficient streams: low baseline accuracy
  (listed in the low-accuracy group of Sec. 8.2.2).
* milc    — streaming lattice QCD; values nearly unpredictable, with a
  long-run trap pattern that produces the paper's "milc is slightly slowed
  down ... smaller than 1%" under FPC + squash (Sec. 8.2.1).
* namd    — high-ILP force loops: ~90 % coverage but marginal speedup
  because nothing dependence-limited remains (Sec. 8.2.2: "namd exhibits
  90% coverage but marginal speedup").
* lbm     — lattice-Boltzmann streaming: strided DRAM traffic, prefetcher
  territory, small VP gains.

Floating-point values are represented as 64-bit integer payloads: the
predictors and the pipeline treat values as opaque 64-bit quantities, so
using scaled-integer arithmetic preserves every predictability property
(repetition, strides, periodicity) that matters.
"""

from __future__ import annotations

from repro.util.bits import MASK64
from repro.workloads.builder import TraceBuilder


def wupwise_kernel(b: TraceBuilder, n_target: int) -> None:
    """Blocked matrix-vector products behind a strided index recurrence.

    The serial bottleneck is an index chain threaded through memory
    (``idx = load(successors[idx])``) whose *values* advance by a constant
    stride — real code's linearised multi-dimensional index arithmetic.
    Predicting the index values collapses the chain, which is precisely how
    a stride predictor speeds this workload up; the FP multiply/add work
    hanging off each index is parallel."""
    m = 1024  # 8 KB successor table: L1-resident addresses
    stride = 3
    n_fp = 8
    succ_base = b.alloc(m * 8)
    mat_base = b.alloc(m * 8)
    acc = [0] * n_fp
    global_idx = 0
    iteration = 0
    while b.n < n_target:
        # The linearised index advances without ever wrapping (addresses
        # wrap modulo the table, values do not): a pure stride stream with
        # no periodic discontinuity to trip saturated confidence counters.
        nxt = (global_idx + stride) & MASK64
        b.load("wu_ld_idx", "idx", succ_base + (global_idx % m) * 8, nxt,
               addr_srcs=["idx"])
        b.alu("wu_scale", "off", ["idx"], (nxt * 8) & MASK64)
        for j in range(n_fp):  # parallel FP work per index
            v = (3 * (global_idx + j) + 7) & MASK64
            b.load(f"wu_ld_m{j}", f"m{j}", mat_base + ((global_idx + j) % m) * 8, v,
                   addr_srcs=["off"], fp=True)
            prod = (v * 5) & MASK64
            b.fmul(f"wu_mul{j}", f"p{j}", [f"m{j}"], prod)
            acc[j] = (acc[j] + prod) & MASK64
            b.fadd(
                f"wu_acc{j}",
                f"a{j}",
                [f"p{j}", f"a{j}"] if iteration else [f"p{j}"],
                acc[j],
            )
        global_idx = nxt
        iteration += 1
        b.branch("wu_loop", taken=True, target_label="wu_ld_idx", srcs=["idx"])


def applu_kernel(b: TraceBuilder, n_target: int) -> None:
    """SSOR grid sweep: the position pointer advances by a branch-selected
    stride (interior +8, boundary +40 bytes).

    The memory-carried position chain gates each iteration.  Its values are
    an exact function of the boundary branch history — VTAGE territory —
    while plain stride predictors see "mostly +8 with unpredictable +40
    glitches" and never hold FPC confidence (Section 8.2.3: applu is one of
    the benchmarks that "achieve higher performance with VTAGE")."""
    nx = 16  # short rows: one row's branches fit in VTAGE's 64-bit history
    row_bytes = 14 * 8 + 2 * 40  # one full row of strides: pos repeats per row
    coeff_interior = 0x3FE0_0000_0000_0000
    coeff_boundary = 0x3FD5_5555_5555_5555
    grid_base = b.alloc(nx * nx * 8)
    pos_slot = b.alloc(8)
    pos = 0
    i = 0
    acc = 0
    while b.n < n_target:
        x = i % nx
        boundary = x == 0 or x == nx - 1
        # Position chain: reload, advance by the branch-selected stride,
        # store back.
        b.load("ap_ld_pos", "pos", pos_slot, pos)
        b.branch("ap_bnd", taken=boundary, target_label="ap_skip", srcs=["pos"])
        step = 40 if boundary else 8
        pos = (pos + step) % row_bytes
        label = "ap_stepb" if boundary else "ap_stepi"
        b.alu(label, "pos", ["pos"], pos)
        b.store("ap_st_pos", pos_slot, "pos")
        # Coefficient selected by the same branch: also history-correlated.
        coeff = coeff_boundary if boundary else coeff_interior
        b.load("ap_ld_cf", "cf", grid_base + (0 if boundary else 8), coeff, fp=True)
        val = (coeff ^ (pos * 0x10000)) & MASK64
        b.fmul("ap_mul", "v", ["cf", "pos"], val)
        acc = (acc + val) & MASK64
        b.fadd("ap_acc", "acc", ["v", "acc"] if i else ["v"], acc)
        if i % 8 == 7:
            b.store("ap_st", grid_base + (pos % (nx * nx * 8)), "acc",
                    addr_srcs=["pos"], fp_data=True)
        i += 1
        b.branch("ap_loop", taken=True, target_label="ap_ld_pos", srcs=["pos"])


def art_kernel(b: TraceBuilder, n_target: int) -> None:
    """ART F1 scans: a short periodic neuron array plus strided weights.

    Two predictable streams with different signatures: the small F1 array
    is rescanned every 24 iterations (a periodic per-PC value pattern —
    context-predictor food), while the big weight array carries affine
    values (stride food) and misses the L1.  The serial match accumulator
    chains through both, so correct predictions directly shorten the
    critical path, giving the oracle its large Figure 3 headroom."""
    rng = b.rng
    f1_period = 240
    f1 = [rng.getrandbits(52) for _ in range(f1_period)]
    n_weights = 48 * 1024  # 384 KB: streams through L1 into L2
    w_base = b.alloc(n_weights * 8)
    f1_base = b.alloc(f1_period * 8)
    j_slot = b.alloc(8)
    j = 0
    match = 0
    while b.n < n_target:
        k = j % f1_period
        if k == 0:
            match = 0  # per-scan reduction: partial sums repeat every scan
        # The scan index is a memory-carried induction variable (classic
        # unoptimised code): reload, increment, store back.  Its values are
        # a pure stride, and the whole scan hangs off it — the chain stride
        # predictors collapse.
        b.load("art_ld_j", "j", j_slot, j)
        b.alu("art_inc_j", "j", ["j"], j + 1)
        b.store("art_st_j", j_slot, "j")
        # Weight values follow the scan period: products and partial sums
        # are period-240 streams (context-predictor food); neuron values
        # are fixed random numbers (no stride pattern to mis-latch on).
        wj = (5 * k + 11) & MASK64
        xj = f1[k]
        b.load("art_ld_w", "w", w_base + (j % n_weights) * 8, wj, addr_srcs=["j"], fp=True)
        b.load("art_ld_x", "x", f1_base + k * 8, xj, addr_srcs=["j"], fp=True)
        prod = (wj * xj) & MASK64
        b.fmul("art_mul", "p", ["w", "x"], prod)
        match = (match + prod) & MASK64
        b.fadd("art_acc", "acc", ["p", "acc"] if k else ["p"], match)
        winner = (match >> 60) & 1 == 1
        b.branch("art_win", taken=winner, target_label="art_ld_j", srcs=["acc"])
        j += 1


def gamess_kernel(b: TraceBuilder, n_target: int) -> None:
    """Integral evaluation with phase switches: traps plain counters."""
    rng = b.rng
    # Coefficient stream: stable within a phase (~15 uses), then switches.
    phases = []
    while len(phases) < 8192:
        coeff = rng.getrandbits(52)
        phases.extend([coeff] * max(2, int(rng.expovariate(1.0 / 15))))
    coef_base = b.alloc(64 * 8)
    i = 0
    acc = 0
    while b.n < n_target:
        coeff = phases[i % len(phases)]
        b.alu("gm_i", "i", ["i"] if i else [], i)
        b.load("gm_ld_c", "c", coef_base + (i % 64) * 8, coeff, addr_srcs=["i"], fp=True)
        # Horner step: serial FP chain through the coefficient.
        acc = ((acc * 3) + coeff) & MASK64
        b.fmul("gm_horner_m", "h", ["acc"] if i else ["c"], (acc * 3) & MASK64)
        b.fadd("gm_horner_a", "acc", ["h", "c"], acc)
        converged = (acc & 0xFF) < 40
        b.branch("gm_conv", taken=converged, target_label="gm_i", srcs=["acc"])
        i += 1


def milc_kernel(b: TraceBuilder, n_target: int) -> None:
    """SU(3) streaming: unpredictable FP + a long-run confidence trap."""
    rng = b.rng
    n_sites = 1 << 18  # 256K sites x 8 B: 2 MB, thrashes the L2
    lattice = b.rand_table(n_sites, 60)
    lat_base = b.alloc(n_sites * 8)
    # Trap stream: stable for ~700 uses (long enough to saturate even FPC),
    # then switches -> rare but real squashes on a memory-bound path,
    # reproducing the paper's "milc is slightly slowed down" (< 1 %).
    trap = []
    while len(trap) < 16384:
        v = rng.getrandbits(40)
        trap.extend([v] * rng.randrange(900, 1500))
    i = 0
    acc = 0
    while b.n < n_target:
        site = (i * 7) % n_sites
        v = lattice[site]
        b.alu("mi_i", "i", ["i"] if i else [], i)
        b.load("mi_ld", "v", lat_base + site * 8, v, addr_srcs=["i"], fp=True)
        t = trap[i % len(trap)]
        b.load("mi_ld_t", "t", lat_base + (site ^ 1) * 8, t, addr_srcs=["i"], fp=True)
        prod = (v * t) & MASK64
        b.fmul("mi_mul", "p", ["v", "t"], prod)
        acc = (acc + prod) & MASK64
        b.fadd("mi_acc", "acc", ["p", "acc"] if i else ["p"], acc)
        i += 1
        b.branch("mi_loop", taken=True, target_label="mi_i", srcs=["i"])


def namd_kernel(b: TraceBuilder, n_target: int) -> None:
    """Pairwise force loops: highly predictable values, FP-throughput bound.

    Eight independent FP multiply/add pairs per iteration saturate the FP
    pools; values repeat every timestep so coverage is ~90 %, but breaking
    dependences buys nothing — the paper's namd result."""
    m = 512
    c_base = b.alloc(m * 8)
    i = 0
    while b.n < n_target:
        k = i % m
        b.alu("na_k", "k", ["k"] if i else [], k)
        for pair in range(6):  # independent work: no chains to break
            # Values are globally affine in the iteration count (no wrap
            # discontinuity), so the per-PC streams are pure strides.
            v = ((i + pair) * 0x1111_1111) & MASK64
            b.load(f"na_ld{pair}", f"c{pair}", c_base + ((k + pair) % m) * 8, v,
                   addr_srcs=["k"], fp=True)
            b.fmul(f"na_mul{pair}", f"f{pair}", [f"c{pair}"], (v * 9) & MASK64)
            b.fadd(f"na_add{pair}", f"e{pair}", [f"f{pair}"], (v * 9 + 1) & MASK64)
        for extra in range(5):  # independent integer bookkeeping
            b.alu(f"na_int{extra}", f"t{extra}", [], (i * 3 + extra) & MASK64)
        i += 1
        b.branch("na_loop", taken=True, target_label="na_k", srcs=["k"])


def lbm_kernel(b: TraceBuilder, n_target: int) -> None:
    """Lattice-Boltzmann streaming: strided DRAM traffic, low value reuse."""
    n_cells = 1 << 18  # 2 MB working set streamed linearly
    cells = b.rand_table(n_cells, 56)
    cell_base = b.alloc(n_cells * 8)
    out_base = b.alloc(n_cells * 8)
    i = 0
    while b.n < n_target:
        idx = i % n_cells
        b.alu("lb_i", "i", ["i"] if i else [], i)
        total = 0
        for d in range(3):  # three of the 19 stencil directions
            v = cells[(idx + d * 64) % n_cells]
            b.load(f"lb_ld{d}", f"v{d}", cell_base + ((idx + d * 64) % n_cells) * 8, v,
                   addr_srcs=["i"], fp=True)
            total = (total + v) & MASK64
            b.fadd(f"lb_add{d}", "tot", [f"v{d}", "tot"] if d else [f"v{d}"], total)
        b.fmul("lb_relax", "tot", ["tot"], (total * 3) & MASK64)
        b.store("lb_st", out_base + idx * 8, "tot", addr_srcs=["i"], fp_data=True)
        i += 1
        b.branch("lb_loop", taken=True, target_label="lb_i", srcs=["i"])
