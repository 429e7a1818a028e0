"""Integer workload kernels (SPEC CPU2000/2006 INT stand-ins, Table 3).

Each kernel is a small program that actually computes: the emitted µop
stream carries real dependences, real addresses and real result values.
Kernels are calibrated to reproduce the *qualitative* behaviour the paper
reports per benchmark — which predictor family covers it, how accurate the
baseline 3-bit confidence scheme is, how much headroom an oracle has — not
gem5's absolute numbers (see DESIGN.md).

Calibration summary (paper references in parentheses):

* gzip    — LZ-style match loop; mixed predictability, modest gains.
* vpr     — annealing swaps driven by an LCG; low-moderate predictability.
* crafty  — bitboard/hash chess; *almost-stable* values that switch without
  warning -> low baseline accuracy, slowdown without FPC (Fig. 4a).
* parser  — dictionary hash chains; repeated words make revisit loads
  predictable.
* vortex  — OO database with heavy call/return traffic; tag fields
  alternate among a few values -> low baseline accuracy (Fig. 4a).
* bzip2   — counter/histogram heavy; strided value streams favour
  2D-Stride (Sec. 8.2.3: "bzip achieves higher performance with 2D-Stride").
* gcc     — grammar-driven IR walk; node kinds correlate with branch
  history -> VTAGE territory (Sec. 8.2.3).
* mcf     — pointer chasing over a DRAM-sized graph; mostly-stable
  successor pointers give the oracle huge headroom (Fig. 3).
* gobmk   — board scans with almost-stable ownership values and hard
  branches -> low baseline accuracy (Fig. 4a).
* hmmer   — Viterbi DP; quasi-linear score growth, moderate stride cover.
* sjeng   — chess search like crafty; hash-dominated, low predictability.
* h264ref — motion-vector refinement: a few predictable divisions gate the
  critical path -> small coverage, large speedup (Sec. 8.2.2: "a small
  coverage may lead to significant speed-up e.g. h264").
"""

from __future__ import annotations

from repro.util.bits import MASK64
from repro.workloads.builder import TraceBuilder

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407


def _lcg(state: int) -> int:
    return (state * _LCG_A + _LCG_C) & MASK64


def gzip_kernel(b: TraceBuilder, n_target: int) -> None:
    """LZ77-flavoured compressor loop: rolling hash, chain probe, match run."""
    rng = b.rng
    window_size = 4096
    # Input with repeated motifs so matches actually occur.
    motif = [rng.randrange(256) for _ in range(64)]
    data = []
    while len(data) < window_size * 4:
        if rng.random() < 0.6:
            data.extend(motif[: rng.randrange(8, 32)])
        else:
            data.append(rng.randrange(256))
    hash_table = [0] * 1024
    input_base = b.alloc(len(data))
    table_base = b.alloc(len(hash_table) * 8)
    token_base = b.alloc(4096 * 8)
    pos = 0
    h = 0
    literals = 0
    tokens = 0
    b.imm("gz_init_h", "h", 0)
    while b.n < n_target:
        c = data[pos % len(data)]
        b.alu("gz_pos", "pos", ["pos"], pos) if pos else b.imm("gz_pos0", "pos", 0)
        b.load("gz_ld_c", "c", input_base + (pos % len(data)), c, addr_srcs=["pos"], size=1)
        h = ((h * 33) ^ c) & 1023
        b.alu("gz_hash", "h", ["h", "c"], h)
        head = hash_table[h]
        b.load("gz_ld_head", "head", table_base + h * 8, head, addr_srcs=["h"])
        hash_table[h] = pos
        b.store("gz_st_head", table_base + h * 8, "pos", addr_srcs=["h"])
        # Match loop: compare a few bytes against the chain head position.
        match_len = 0
        for k in range(4):
            same = data[(head + k) % len(data)] == data[(pos + k) % len(data)]
            b.load(
                f"gz_ld_m{k}",
                "mb",
                input_base + ((head + k) % len(data)),
                data[(head + k) % len(data)],
                addr_srcs=["head"],
                size=1,
            )
            b.branch(f"gz_br_m{k}", taken=not same, target_label="gz_emit", srcs=["mb", "c"])
            if not same:
                break
            match_len += 1
        if match_len >= 2:
            tokens += 1
            b.alu("gz_len", "len", ["len"] if "len" in b._int_regs else [], match_len)
            b.store("gz_st_tok", token_base + (tokens % 4096) * 8, "len")
        else:
            literals += 1
            b.alu("gz_lit", "lit", ["lit"] if pos else [], literals)
        pos += 1
        b.branch("gz_loop", taken=True, target_label="gz_pos")


def vpr_kernel(b: TraceBuilder, n_target: int) -> None:
    """Simulated-annealing placement: LCG-driven swaps, slow-moving state."""
    n_cells = 512
    xs = [b.rng.randrange(64) for _ in range(n_cells)]
    ys = [b.rng.randrange(64) for _ in range(n_cells)]
    x_base = b.alloc(n_cells * 8)
    y_base = b.alloc(n_cells * 8)
    state = 0x9E3779B9
    temp = 1 << 20
    b.imm("vpr_seed", "r", state)
    while b.n < n_target:
        state = _lcg(state)
        b.alu("vpr_lcg1", "r", ["r"], state)
        cell = (state >> 32) % n_cells
        b.alu("vpr_cell", "cell", ["r"], cell)
        b.load("vpr_ld_x", "x", x_base + cell * 8, xs[cell], addr_srcs=["cell"])
        b.load("vpr_ld_y", "y", y_base + cell * 8, ys[cell], addr_srcs=["cell"])
        dx = ((state >> 16) & 7) - 3
        cost = abs(xs[cell] + dx) + ys[cell]
        b.alu("vpr_dx", "dx", ["r"], dx)
        b.alu("vpr_cost", "cost", ["x", "dx"], cost)
        accept = (state & 0xFFFF) < 0x7000  # ~44 % acceptance
        b.branch("vpr_acc", taken=accept, target_label="vpr_lcg1", srcs=["cost"])
        if accept:
            xs[cell] = (xs[cell] + dx) % 64
            b.alu("vpr_nx", "x", ["x", "dx"], xs[cell])
            b.store("vpr_st_x", x_base + cell * 8, "x", addr_srcs=["cell"])
        temp -= 1
        b.alu("vpr_temp", "t", ["t"] if temp != (1 << 20) - 1 else [], temp)
        b.branch("vpr_loop", taken=True, target_label="vpr_lcg1", srcs=["t"])


def _almost_stable_stream(rng, n_values: int, mean_run: int, universe: int):
    """Values that hold for a geometric run, then switch unpredictably.

    This is the pattern that wrecks plain 3-bit confidence counters: the
    counter saturates during a run, then the switch costs a used
    misprediction (Section 8.2.2's low-baseline-accuracy group)."""
    values = []
    current = rng.randrange(universe)
    while len(values) < n_values:
        run = max(1, int(rng.expovariate(1.0 / mean_run)))
        values.extend([current] * run)
        current = rng.randrange(universe)
    return values[:n_values]


def crafty_kernel(b: TraceBuilder, n_target: int) -> None:
    """Chess bitboards: almost-stable square contents + chaotic hash probes."""
    rng = b.rng
    board = _almost_stable_stream(rng, 8192, mean_run=11, universe=13)
    tt_size = 16384
    tt = b.rand_table(tt_size, 32)
    board_base = b.alloc(64 * 8)
    tt_base = b.alloc(tt_size * 8)
    zob_base = b.alloc(13 * 64 * 8)
    zob = [rng.getrandbits(64) for _ in range(13 * 64)]
    state = 12345
    i = 0
    b.imm("cr_i0", "sq", 0)
    while b.n < n_target:
        sq = i % 64
        piece = board[i % len(board)]
        b.alu("cr_sq", "sq", ["sq"], sq)
        b.load("cr_ld_board", "piece", board_base + sq * 8, piece, addr_srcs=["sq"])
        # Attack-mask generation: shift/mask chain on the piece value.
        att = ((piece << sq) | (piece >> 2)) & MASK64
        b.alu("cr_att1", "att", ["piece", "sq"], att)
        b.alu("cr_att2", "att", ["att"], att ^ (att >> 7))
        zkey = zob[piece * 64 + sq]
        b.load("cr_ld_zob", "zk", zob_base + (piece * 64 + sq) * 8, zkey, addr_srcs=["piece", "sq"])
        state = (state ^ zkey) & MASK64
        b.alu("cr_hmix", "hkey", ["hkey", "zk"] if i else ["zk"], state)
        slot = state % tt_size
        probe = tt[slot]
        b.load("cr_ld_tt", "tte", tt_base + slot * 8, probe, addr_srcs=["hkey"])
        # Cutoff branch driven by chaotic hash bits: hard to predict.
        cutoff = (probe ^ state) & 3 == 0
        b.branch("cr_cut", taken=cutoff, target_label="cr_sq", srcs=["tte"])
        if cutoff:
            tt[slot] = state
            b.store("cr_st_tt", tt_base + slot * 8, "hkey", addr_srcs=["hkey"])
        i += 1
        b.branch("cr_loop", taken=True, target_label="cr_sq", srcs=["sq"])


def parser_kernel(b: TraceBuilder, n_target: int) -> None:
    """Dictionary hash chains with Zipf-ish word reuse."""
    rng = b.rng
    n_words = 800
    buckets = 256
    # Chains: bucket -> list of (node_addr, word_id); layout fixed.
    chains: list[list[tuple[int, int]]] = [[] for _ in range(buckets)]
    node_base = b.alloc(n_words * 32)
    for w in range(n_words):
        chains[w % buckets].append((node_base + w * 32, w))
    # Zipf-ish reuse: small ids much more frequent.
    def next_word():
        return min(int(rng.paretovariate(1.3)) - 1, n_words - 1)

    counts_base = b.alloc(n_words * 8)
    counts = [0] * n_words
    b.imm("pa_i0", "w", 0)
    while b.n < n_target:
        w = next_word()
        h = w % buckets
        b.alu("pa_word", "w", ["w"], w)
        b.alu("pa_hash", "h", ["w"], h)
        # Walk the chain until the word is found.
        for depth, (addr, wid) in enumerate(chains[h]):
            b.load(f"pa_ld_n{min(depth,3)}", "node", addr, wid, addr_srcs=["h" if depth == 0 else "node"])
            found = wid == w
            b.branch(f"pa_br_n{min(depth,3)}", taken=found, target_label="pa_count", srcs=["node", "w"])
            if found or depth >= 3:
                break
        counts[w] += 1
        b.load("pa_ld_c", "cnt", counts_base + w * 8, counts[w] - 1, addr_srcs=["w"])
        b.alu("pa_inc", "cnt", ["cnt"], counts[w])
        b.store("pa_st_c", counts_base + w * 8, "cnt", addr_srcs=["w"])
        b.branch("pa_loop", taken=True, target_label="pa_word", srcs=["cnt"])


def vortex_kernel(b: TraceBuilder, n_target: int) -> None:
    """OO database: method dispatch on objects whose tags alternate."""
    rng = b.rng
    n_objects = 1024
    tags = _almost_stable_stream(rng, 8192, mean_run=14, universe=3)
    obj_base = b.alloc(n_objects * 64)
    fields = [rng.randrange(1000) for _ in range(n_objects)]
    i = 0
    b.imm("vx_i0", "obj", 0)
    while b.n < n_target:
        obj = (i * 17) % n_objects
        tag = tags[i % len(tags)]
        b.alu("vx_obj", "obj", ["obj"], obj)
        b.load("vx_ld_tag", "tag", obj_base + obj * 64, tag, addr_srcs=["obj"])
        # Virtual dispatch: call through one of three handlers.
        b.call("vx_call", f"vx_handler{tag}")
        # Handler body: load a field, transform, store back.
        field = fields[obj]
        b.load(f"vx_h{tag}_ld", "fld", obj_base + obj * 64 + 8, field, addr_srcs=["obj"])
        new_field = (field + tag + 1) % 100000
        b.alu(f"vx_h{tag}_op", "fld", ["fld", "tag"], new_field)
        fields[obj] = new_field
        b.store(f"vx_h{tag}_st", obj_base + obj * 64 + 8, "fld", addr_srcs=["obj"])
        b.ret(f"vx_h{tag}_ret")
        # Transaction counter: clean stride.
        i += 1
        b.alu("vx_txn", "txn", ["txn"] if i > 1 else [], i)
        b.branch("vx_loop", taken=True, target_label="vx_obj", srcs=["txn"])


def bzip2_kernel(b: TraceBuilder, n_target: int) -> None:
    """Burrows-Wheeler-ish counting: histogram and cumulative strides."""
    rng = b.rng
    # Run-heavy byte stream (post-RLE flavour).
    stream = []
    while len(stream) < 16384:
        byte = rng.randrange(16)
        stream.extend([byte] * rng.randrange(1, 12))
    freq = [0] * 16
    stream_base = b.alloc(len(stream))
    freq_base = b.alloc(16 * 8)
    out_base = b.alloc(65536 * 8)
    ptr_slot = b.alloc(8)
    i = 0
    total = 0
    b.imm("bz_i0", "i", 0)
    while b.n < n_target:
        c = stream[i % len(stream)]
        b.alu("bz_i", "i", ["i"], i)
        b.load("bz_ld_c", "c", stream_base + (i % len(stream)), c, addr_srcs=["i"], size=1)
        freq[c] += 1
        b.load("bz_ld_f", "f", freq_base + c * 8, freq[c] - 1, addr_srcs=["c"])
        b.alu("bz_inc_f", "f", ["f"], freq[c])
        b.store("bz_st_f", freq_base + c * 8, "f", addr_srcs=["c"])
        # Memory-carried cumulative output pointer: a textbook stride chain
        # that gates the output store (2D-Stride's Section 8.2.3 food).
        total += 8
        b.load("bz_ld_ptr", "ptr", ptr_slot, total - 8)
        b.alu("bz_inc_ptr", "ptr", ["ptr"], total)
        b.store("bz_st_ptr", ptr_slot, "ptr")
        b.store("bz_st_out", out_base + (total % 65536), "c", addr_srcs=["ptr"])
        # Run-length branch: highly biased within runs.
        in_run = i + 1 < len(stream) and stream[(i + 1) % len(stream)] == c
        b.branch("bz_run", taken=in_run, target_label="bz_i", srcs=["c"])
        i += 1
        b.branch("bz_loop", taken=True, target_label="bz_i", srcs=["i"])


def gcc_kernel(b: TraceBuilder, n_target: int) -> None:
    """Grammar-driven IR walk: node kinds follow the branch path (VTAGE food).

    The per-node chain is a two-level table walk gated by the *kind*: the
    kind value selects the info table entry, whose value addresses the
    operand table.  Kind and info values vary per node but are functions of
    the recent branch path, so VTAGE predicts them and collapses the walk;
    per-instruction predictors see an alternating stream they cannot hold."""
    rng = b.rng
    # Markov grammar over node kinds 0..5; mostly deterministic transitions.
    follow = {0: 1, 1: 2, 2: 3, 3: 0, 4: 5, 5: 0}
    kind_info = [7, 13, 21, 34, 55, 89]  # per-kind operand table
    operands = [(3 * v + 1) & MASK64 for v in range(128)]
    info_base = b.alloc(len(kind_info) * 8)
    op_base = b.alloc(len(operands) * 8)
    kind = 0
    acc = 0
    b.imm("gcc_k0", "kind", 0)
    while b.n < n_target:
        # Occasionally jump to the irregular sub-grammar.
        if rng.random() < 0.08:
            kind = rng.choice((4, 5))
        # Dispatch: two branches encode the kind class in the history.
        is_arith = kind < 3
        b.branch("gcc_b1", taken=is_arith, target_label="gcc_arith", srcs=["kind"])
        is_leaf = kind in (0, 4)
        b.branch("gcc_b2", taken=is_leaf, target_label="gcc_leaf", srcs=["kind"])
        # Two-level walk: kind -> info -> operand (serial loads).
        info = kind_info[kind]
        b.load("gcc_ld_info", "info", info_base + kind * 8, info, addr_srcs=["kind"])
        operand = operands[info % len(operands)]
        b.load("gcc_ld_op", "opnd", op_base + (info % len(operands)) * 8, operand,
               addr_srcs=["info"])
        acc = (acc + operand) & MASK64
        b.alu("gcc_acc", "acc", ["acc", "opnd"] if acc != operand else ["opnd"], acc)
        kind = follow[kind]
        b.alu("gcc_next", "kind", ["kind"], kind)
        b.branch("gcc_loop", taken=True, target_label="gcc_b1", srcs=["kind"])


def mcf_kernel(b: TraceBuilder, n_target: int) -> None:
    """Network simplex: DRAM-resident pointer chase plus arc-cost scans.

    The chase itself is not value-predictable (every occurrence of the
    successor load yields a new node id), which is why real predictors gain
    little here while the Figure 3 oracle — which simply knows every value
    — collapses the entire dependent-miss chain for a huge speedup."""
    rng = b.rng
    n_nodes = 1 << 17  # 128K nodes x 8B successor = 1 MB: mostly L2-resident
    # Two fixed random permutations, chased in alternation: dependent cache
    # misses with a little memory-level parallelism, like the real solver.
    perms = []
    for _ in range(2):
        perm = list(range(n_nodes))
        rng.shuffle(perm)
        perms.append(perm)
    node_bases = [b.alloc(n_nodes * 8), b.alloc(n_nodes * 8)]
    arc_base = b.alloc((1 << 19) * 8)  # 4 MB arc array streamed via DRAM
    cur = [0, 1]
    cost = 0
    i = 0
    b.imm("mcf_c0", "cur0", 0)
    b.imm("mcf_c1", "cur1", 1)
    while b.n < n_target:
        chain = i % 2
        reg = f"cur{chain}"
        if rng.random() < 0.15:
            # Pivot: the traversal deviates (defeats last-value prediction).
            nxt = rng.randrange(n_nodes)
        else:
            nxt = perms[chain][cur[chain]]
        b.load(f"mcf_ld_next{chain}", reg, node_bases[chain] + cur[chain] * 8, nxt,
               addr_srcs=[reg])
        # Streaming arc scan: independent of the chase (sequential
        # addresses the prefetcher covers), so the baseline core overlaps
        # it with the pointer-chase misses.
        reduced = 0
        for a in range(3):
            arc_cost = ((nxt + a) * 2654435761) & 0x3FFFF
            b.load(f"mcf_ld_arc{a}", f"ac{a}", arc_base + ((i * 192 + a * 64) % (1 << 22)),
                   arc_cost)
            reduced = (reduced + arc_cost) & MASK64
            b.alu(f"mcf_red{a}", "red", [f"ac{a}", "red"] if a else [f"ac{a}"], reduced)
        cost = (cost + reduced) & MASK64
        b.alu("mcf_cost", "cost", ["cost", "red"] if i else ["red"], cost)
        over = (cost & 0xFFF) > 0x800
        b.branch("mcf_chk", taken=over, target_label="mcf_ld_next0", srcs=["red"])
        cur[chain] = nxt
        i += 1


def gobmk_kernel(b: TraceBuilder, n_target: int) -> None:
    """Go board scans: almost-stable ownership + pattern-match branches."""
    rng = b.rng
    board = _almost_stable_stream(rng, 4096, mean_run=9, universe=3)
    lib_base = b.alloc(361 * 8)
    board_base = b.alloc(361 * 8)
    i = 0
    b.imm("go_i0", "pt", 0)
    while b.n < n_target:
        pt = i % 361
        owner = board[i % len(board)]
        b.alu("go_pt", "pt", ["pt"], pt)
        b.load("go_ld_own", "own", board_base + pt * 8, owner, addr_srcs=["pt"])
        libs = (owner + pt) % 5
        b.load("go_ld_lib", "lib", lib_base + pt * 8, libs, addr_srcs=["pt"])
        # Pattern match: chaotic two-level branch.
        matches = ((owner * 31 + libs) ^ (pt >> 2)) % 7 < 2
        b.branch("go_pat", taken=matches, target_label="go_pt", srcs=["own", "lib"])
        if matches:
            b.alu("go_score", "sc", ["sc", "own"] if i else ["own"], (owner + libs) * 3)
            b.store("go_st", lib_base + pt * 8, "sc", addr_srcs=["pt"])
        i += 1
        b.branch("go_loop", taken=True, target_label="go_pt", srcs=["pt"])


def hmmer_kernel(b: TraceBuilder, n_target: int) -> None:
    """Viterbi DP inner loop: scores grow by a constant within long
    homologous stretches (clean stride streams), with rare regime switches.

    The loop-carried score chain runs through the row arrays, so a stride
    predictor that covers it shortens the recurrence; the emission regime
    switches every couple of thousand cells, costing one confident
    misprediction each — modest squash pressure, Fig. 4-style gains."""
    rng = b.rng
    m = 512  # long rows: per-PC value runs far exceed FPC's ~129-step ramp
    match_row = [0] * m
    mr_base = b.alloc(m * 8)
    pos = 0
    emit = 2
    next_switch = 2048
    b.imm("hm_tm", "tm", 3)
    while b.n < n_target:
        if pos >= next_switch:
            emit = rng.randrange(5)  # new homologous stretch
            next_switch = pos + rng.randrange(1500, 2600)
        k = pos % m
        b.alu("hm_k", "k", ["k"] if pos else [], k)
        prev = match_row[k]
        b.load("hm_ld_m", "mprev", mr_base + k * 8, prev, addr_srcs=["k"])
        score = prev + 3 + emit  # constant growth within a stretch
        b.alu("hm_ms", "ms", ["mprev", "tm"], score)
        better = score % 7 != 0  # biased selection branch
        b.branch("hm_max", taken=better, target_label="hm_k", srcs=["ms"])
        match_row[k] = score
        b.store("hm_st_m", mr_base + k * 8, "ms", addr_srcs=["k"])
        # Independent bookkeeping: cell counter and traceback pointer.
        b.alu("hm_cell", "cell", ["cell"] if pos else [], pos)
        b.alu("hm_tb", "tb", ["cell"], (pos * 8) & MASK64)
        pos += 1


def sjeng_kernel(b: TraceBuilder, n_target: int) -> None:
    """Chess search: attack tables, chaotic hash cutoffs, deep branching."""
    rng = b.rng
    pieces = _almost_stable_stream(rng, 8192, mean_run=8, universe=12)
    att_base = b.alloc(64 * 12 * 8)
    hist_base = b.alloc(4096 * 8)
    state = 0xDEAD
    i = 0
    b.imm("sj_i0", "sq", 0)
    while b.n < n_target:
        sq = (i * 11) % 64
        piece = pieces[i % len(pieces)]
        b.alu("sj_sq", "sq", ["sq"], sq)
        b.load("sj_ld_p", "p", att_base + (piece * 64 + sq) * 8, piece, addr_srcs=["sq"])
        state = _lcg(state ^ (piece << sq))
        b.alu("sj_mix", "h", ["h", "p"] if i else ["p"], state)
        hist = (state >> 20) & 4095
        b.load("sj_ld_h", "hv", hist_base + hist * 8, (state >> 8) & 0xFF, addr_srcs=["h"])
        # Alpha-beta style cutoffs: two correlated-but-noisy branches.
        deep = (state & 7) < 3
        b.branch("sj_deep", taken=deep, target_label="sj_sq", srcs=["hv"])
        if deep:
            cut = (state >> 9) & 1 == 1
            b.branch("sj_cut", taken=cut, target_label="sj_sq", srcs=["hv", "h"])
            if cut:
                b.store("sj_st_h", hist_base + hist * 8, "h", addr_srcs=["h"])
        i += 1
        b.branch("sj_loop", taken=True, target_label="sj_sq", srcs=["sq"])


def h264_kernel(b: TraceBuilder, n_target: int) -> None:
    """Motion-vector refinement: one *predictable* division and one
    *data-dependent* division sit serially on each block's critical path.

    Value prediction removes the predictable half of the chain (the
    constant step division and the strided motion-vector update) and leaves
    the quantisation division alone — a small number of covered µops buys a
    large speedup, the paper's h264 signature (Section 8.2.2)."""
    rng = b.rng
    block = [rng.randrange(256) for _ in range(256)]
    ref = [min(255, v + rng.randrange(-4, 5)) for v in block]
    blk_base = b.alloc(256)
    ref_base = b.alloc(256)
    step_slot = b.alloc(8)
    mv_slot = b.alloc(8)
    out_base = b.alloc(64 * 8)
    mv = 0
    for_block = 0
    while b.n < n_target:
        # Predictable serial recurrence: the motion-vector predictor is
        # reloaded from memory, advanced by a constant step and stored back
        # — a memory-carried strided chain that gates every block.
        step = 8
        b.load("h2_ld_step", "step", step_slot, step)  # constant: all predictors
        b.load("h2_ld_mv", "mv", mv_slot, mv)          # strided: +8 per block
        mv = (mv + step) & 0xFFFF
        b.alu("h2_mv1", "mv", ["mv", "step"], mv)
        lane = mv & 63
        b.alu("h2_mv2", "lane", ["mv"], lane)
        b.store("h2_st_mv", mv_slot, "mv")
        # SAD loop: data-dependent, chained off the (predictable) lane.
        sad = 0
        for k in range(6):
            idx = (lane + k) % 256
            a = block[idx]
            c = ref[idx]
            b.load("h2_ld_a", "pa", blk_base + idx, a, addr_srcs=["lane"], size=1)
            b.load("h2_ld_c", "pc", ref_base + idx, c, addr_srcs=["lane"], size=1)
            sad += abs(a - c)
            b.alu("h2_sad", "sad", ["pa", "pc", "sad"] if k else ["pa", "pc"], sad)
        # Unpredictable quantiser scale off the data-dependent SAD; a cheap
        # multiply, so it does not gate in-order commit (the rare true
        # division is kept for flavour every 16th block).
        quant = (sad * 3) & MASK64
        b.mul("h2_mul_q", "q", ["sad"], quant)
        b.store("h2_st_q", out_base + (for_block % 64) * 8, "q")
        if for_block % 16 == 0:
            b.div("h2_div_q", "qd", ["sad"], sad // 6)
        # Biased improvement test: almost always false, so the late-resolving
        # branch does not swamp the experiment with mispredictions.
        better = sad < 8
        b.branch("h2_cmp", taken=better, target_label="h2_ld_step", srcs=["sad"])
        for_block += 1
        b.alu("h2_blk", "blk", ["blk"] if for_block > 1 else [], for_block)
        b.branch("h2_next", taken=True, target_label="h2_ld_step", srcs=["blk"])
