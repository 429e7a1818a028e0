"""Cycle-level trace-driven model of the Table 2 out-of-order core.

The model processes the correct-path µop trace in program order and computes
for every µop its fetch, dispatch, issue, completion and commit cycles,
subject to:

* fetch bandwidth (8 µops/cycle, 2 taken branches/cycle, L1I);
* the 15-cycle in-order front end and 4-cycle in-order back end;
* finite ROB/IQ/LQ/SQ/physical-register resources;
* issue width and functional-unit pools (non-pipelined dividers);
* the cache hierarchy, DRAM, store-set-predicted memory dependences;
* TAGE branch mispredictions (resolved at execute) and BTB misses
  (resolved at decode);
* value prediction: predictions are made at fetch, written into the PRF
  through a limited number of extra write ports before dispatch
  (Section 4), validated at commit, and recovered via either pipeline
  squashing at commit or idealistic selective reissue (Section 7.2.1).

Scheduling model notes (see DESIGN.md for the full discussion):

* This is a *one-pass interval scheduler*: each µop's stage times are
  computed once, in program order.  Wrong-path execution is not simulated;
  mispredictions charge their redirect/refill latency instead.
* The squash-avoidance rule ("squashing can be avoided if the predicted
  result has not been used yet") is evaluated with a bounded lookahead that
  estimates whether the first in-window consumer would have issued before
  the producer executed.  The estimate errs toward squashing, which is the
  conservative direction for the paper's claims.
* Value predictors are trained *at commit*: training events are queued with
  their commit cycle and applied only once the fetch clock passes that
  cycle, so closely-spaced occurrences of an instruction see stale tables
  and confidence counters, exactly like in-flight occurrences in hardware
  (this reproduces the tight-loop repeated-misprediction pathology of
  Section 7.2.1).

Implementation notes (DESIGN.md, "Performance architecture"):

* The scheduler iterates the trace's *columnar* arrays
  (:meth:`~repro.isa.trace.Trace.columns`) — flat lists of predictor keys,
  I-cache line ids, op-class ints and eligibility flags precomputed once
  per cached trace — instead of touching µop attributes and properties per
  iteration.
* Every per-µop resource interaction (bandwidth limiters, in-order
  windows, the issue-queue heap, functional-unit pools) is inlined over
  locals-bound containers; the resource classes in
  :mod:`repro.pipeline.resources` remain the single source of truth for
  the semantics, and the loop mirrors them operation for operation.
* The hot loop allocates nothing on the common path: no
  :class:`~repro.predictors.base.Prediction` objects without a predictor,
  no per-µop tuples except the training-queue entries that genuinely
  outlive the iteration.
* All of this is *observationally invisible*: results are bit-identical
  to the straightforward seed model (pinned by the golden-equivalence
  grid in ``tests/unit/test_golden.py``).
* :class:`CoreModel` builds its memory hierarchy, store sets and branch
  unit on first read.  A job the compiled kernel runs never needs them as
  objects, and the kernel keeps no post-run state: the model and its
  predictor are then spent, and a component read or a second run raises
  :class:`RuntimeError` (:data:`SPENT`).  Under ``REPRO_FAST_SIM=0`` the
  spec loop leaves its post-run state readable.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapreplace

from repro.branch.unit import BranchUnit
from repro.isa.trace import Trace
from repro.isa.uop import OpClass
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.storesets import StoreSets
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.resources import (
    BandwidthLimiter,
    InOrderWindow,
    OutOfOrderWindow,
    UnitPool,
)
from repro.pipeline.result import SimResult
from repro.predictors.base import ValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.util import profiling
from repro.util.gcpause import gc_paused

_LINE_SHIFT = 6  # 64-byte I-cache lines

_N_OP_CLASSES = len(OpClass)
_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)

#: Watermark-advance period of the inlined scheduler loop (µops).  Between
#: advances each bandwidth limiter accumulates at most a few thousand
#: per-cycle entries; see BandwidthLimiter.advance_watermark.
_PRUNE_PERIOD_MASK = 4095

#: What a model or predictor a compiled-kernel run consumed raises when
#: read or run again.
SPENT = ("this model and its predictor ran on the compiled kernel, which "
         "keeps no post-run state; set REPRO_FAST_SIM=0 to read their state "
         "or run them again")


class CoreModel:
    """One simulation instance; use :func:`simulate` for the common path."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        predictor: ValuePredictor | None = None,
    ):
        self.config = config if config is not None else CoreConfig()
        self.predictor = predictor
        # Built on first read (see `memory`, `store_sets`, `branch_unit`):
        # a job the kernel runs needs none of them as objects.
        self._memory: MemoryHierarchy | None = None
        self._store_sets: StoreSets | None = None
        self._branch_unit: BranchUnit | None = None
        #: Whether a compiled-kernel run consumed the model (:data:`SPENT`).
        self.spent = False

    @property
    def memory(self) -> MemoryHierarchy:
        if self._memory is None:
            self._memory = self._build(MemoryHierarchy)
        return self._memory

    @property
    def store_sets(self) -> StoreSets:
        if self._store_sets is None:
            self._store_sets = self._build(StoreSets)
        return self._store_sets

    @property
    def branch_unit(self) -> BranchUnit:
        if self._branch_unit is None:
            self._branch_unit = self._build(BranchUnit)
        return self._branch_unit

    def _build(self, factory):
        if self.spent:
            raise RuntimeError(SPENT)
        return factory()

    def existing(self, name: str):
        """Component *name* (``"memory"``, ``"store_sets"`` or
        ``"branch_unit"``), or ``None`` while it is fresh by construction:
        never read, so not built."""
        return getattr(self, "_" + name)

    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        warmup: int = 0,
        workload: str | None = None,
        stage_trace: list | None = None,
    ) -> SimResult:
        """Run the model over *trace*.

        When *stage_trace* is a list, one ``(seq, fetch, dispatch, ready,
        issue, complete, commit)`` tuple per µop is appended to it — the
        hook the timing tests and debugging tools use.  A trace that names
        a register past 63 raises ``ValueError`` before a loop is picked.
        """
        if self.spent:
            raise RuntimeError(SPENT)
        from repro.pipeline import ckernel, fastsim, precompute

        # Neither loop models a register past 63 (repro.isa.uop); the
        # ranges are cached on the trace, so this is no extra pass.
        max_reg = precompute.trace_ranges(trace)[4]
        if max_reg >= 64:
            raise ValueError(f"trace {trace.name!r} names register {max_reg}; "
                             "the core models registers 0-63")
        # The hot loop allocates short-lived tuples but creates no
        # reference cycles: see repro.util.gcpause.
        with gc_paused(), profiling.phase("simulate"):
            # The one place that picks the loop: the kernel's result, or
            # the one reason this run takes the spec loop.
            mode = fastsim.fast_sim_mode()
            if mode == "off":
                reason = "disabled-by-env"
            elif stage_trace is not None:
                reason = "stage-trace-hook"
            else:
                reason = ckernel.decline_reason(self, trace)
                if reason is None:
                    result = ckernel.run(self, trace, warmup, workload)
                    if not isinstance(result, str):
                        return result
                    reason = result
            fastsim.record_fallback(reason)
            if mode == "require":
                raise fastsim.FastPathRequired(reason)
            return self._run(trace, warmup, workload, stage_trace)

    def _run(
        self,
        trace: Trace,
        warmup: int,
        workload: str | None,
        stage_trace: list | None,
    ) -> SimResult:
        cfg = self.config
        predictor = self.predictor
        have_predictor = predictor is not None
        is_oracle = isinstance(predictor, OraclePredictor)
        reissue = cfg.recovery is RecoveryMode.SELECTIVE_REISSUE

        result = SimResult(
            workload=workload if workload is not None else trace.name,
            predictor=predictor.name if have_predictor else "none",
            recovery=cfg.recovery.value,
        )

        # Bandwidth resources.  The loop below inlines their grant fast
        # path over direct references to the per-cycle count dicts; the
        # limiter objects stay authoritative for pruning and stats.
        fetch_bw = BandwidthLimiter(cfg.fetch_width)
        taken_bw = BandwidthLimiter(cfg.max_taken_per_cycle)
        issue_bw = BandwidthLimiter(cfg.issue_width)
        vp_write_bw = (
            BandwidthLimiter(cfg.vp_write_ports)
            if cfg.vp_write_ports is not None
            else None
        )
        fetch_counts = fetch_bw._counts
        taken_counts = taken_bw._counts
        issue_counts = issue_bw._counts
        fetch_width = cfg.fetch_width
        taken_width = cfg.max_taken_per_cycle
        issue_width = cfg.issue_width
        commit_width = cfg.commit_width
        # Dispatch and commit requests are *monotone* (both are clamped to
        # last_dispatch/last_commit before the grant), so their limiters
        # reduce to a (current cycle, used slots) pair: cycles before the
        # current one are provably full once the grant pointer passed them,
        # and no future request can probe them.  Equivalent to
        # BandwidthLimiter.grant under monotone requests, with zero
        # retained state.
        dbw_cycle = -1
        dbw_used = 0
        cbw_cycle = -1
        cbw_used = 0

        # Window resources (inlined below; objects kept for stats).
        fetch_queue = InOrderWindow(cfg.fetch_queue)
        rob = InOrderWindow(cfg.rob_entries)
        iq = OutOfOrderWindow(cfg.iq_entries)
        lq = InOrderWindow(cfg.lq_entries)
        sq = InOrderWindow(cfg.sq_entries)
        int_prf = InOrderWindow(max(1, cfg.int_prf - cfg.arch_regs))
        fp_prf = InOrderWindow(max(1, cfg.fp_prf - cfg.arch_regs))
        fq_rel = fetch_queue._releases
        fq_size = fetch_queue.size
        rob_rel = rob._releases
        rob_size = rob.size
        iq_rel = iq._releases
        iq_size = iq.size
        lq_rel = lq._releases
        lq_size = lq.size
        sq_rel = sq._releases
        sq_size = sq.size
        int_prf_rel = int_prf._releases
        int_prf_size = int_prf.size
        fp_prf_rel = fp_prf._releases
        fp_prf_size = fp_prf.size
        rob_stalls = iq_stalls = 0
        # Window occupancy mirrors: every container mutation below adjusts
        # its counter, so the full-window checks are integer compares
        # rather than len() calls.
        fq_len = rob_len = iq_len = lq_len = sq_len = 0
        int_prf_len = fp_prf_len = 0

        # Functional units: per-op-class free-server heaps and timings,
        # flattened to int-indexed lists.  Aliasing preserves the shared
        # pools (dividers ride the multipliers, stores the load ports,
        # control the INT ALUs).
        pools = {
            OpClass.INT_ALU: UnitPool(cfg.fu[OpClass.INT_ALU].units),
            OpClass.INT_MUL: UnitPool(cfg.fu[OpClass.INT_MUL].units),
            OpClass.FP_ADD: UnitPool(cfg.fu[OpClass.FP_ADD].units),
            OpClass.FP_MUL: UnitPool(cfg.fu[OpClass.FP_MUL].units),
            OpClass.LOAD: UnitPool(cfg.fu[OpClass.LOAD].units),
        }
        pools[OpClass.INT_DIV] = pools[OpClass.INT_MUL]
        pools[OpClass.FP_DIV] = pools[OpClass.FP_MUL]
        pools[OpClass.STORE] = pools[OpClass.LOAD]
        for cls in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET, OpClass.NOP):
            pools[cls] = pools[OpClass.INT_ALU]
        pool_free = [pools[OpClass(c)]._free for c in range(_N_OP_CLASSES)]
        lats = [cfg.fu[OpClass(c)].latency for c in range(_N_OP_CLASSES)]
        occs = [cfg.fu[OpClass(c)].occupancy for c in range(_N_OP_CLASSES)]

        # Per-architectural-register operand state over the flat 64-entry
        # register space (0-31 integer, 32-63 floating point): the cycle the
        # value is ready for a consumer to issue, and (for reissue-mode IQ
        # pressure) the commit cycle of a speculatively-predicted producer.
        reg_ready = [0] * 64
        reg_spec_commit = [0] * 64

        # In-flight stores for dependence/forwarding checks:
        # (seq, start, end, data_ready, commit, pc).
        store_buffer: deque = deque(maxlen=cfg.sq_entries + 16)

        # Commit-time predictor training queue: (commit_cycle, key, actual,
        # prediction-record).
        train_queue: deque = deque()

        branch_unit = self.branch_unit
        process_branch = branch_unit.process_scalar
        store_sets = self.store_sets
        predicted_store = store_sets.predicted_store
        store_fetched = store_sets.store_fetched
        memory = self.memory
        memory_fetch = memory.fetch
        memory_store = memory.store
        ctx = branch_unit.context
        if have_predictor:
            predictor_lookup = predictor.lookup
            predictor_train = predictor.train
            # speculate() is a no-op unless the predictor overrides it
            # (VTAGE holds no speculative per-instruction state); skip the
            # call entirely in that case.
            predictor_speculate = (
                predictor.speculate
                if type(predictor).speculate is not ValuePredictor.speculate
                else None
            )
        cols = trace.columns()
        n_uops = cols.n
        col_seq = cols.seqs
        col_pc = cols.pcs
        col_line = cols.pc_lines
        col_op = cols.ops
        col_srcs = cols.srcs
        col_dst = cols.dsts
        col_value = cols.values
        col_addr = cols.mem_addrs
        col_size = cols.mem_sizes
        col_taken = cols.takens
        col_target = cols.targets
        col_fp = cols.dst_is_fp
        col_is_branch = cols.is_branch
        col_is_cond = cols.is_cond_branch
        col_produces = cols.produces_value
        col_pkey = cols.pkeys

        frontend = cfg.frontend_depth
        backend = cfg.backend_depth
        redirect_extra = cfg.redirect_extra
        decode_redirect_depth = cfg.decode_redirect_depth
        lookahead_cap = cfg.squash_lookahead
        load_timing = self._load_timing
        consumer_before = self._consumer_before

        fetch_resume = 0
        line_ready = 0
        current_line = -1
        last_fetch = 0
        last_dispatch = 0
        last_commit = 0
        measure_start_commit = None
        vp_all_scope = cfg.vp_scope == "all"

        # Measurement tallies kept in locals; folded into `result` once
        # after the loop (attribute stores are not free at this call rate).
        n_uops_meas = 0
        cond_branches = 0
        branch_mispredicts = 0
        btb_redirects = 0
        vp_eligible_n = vp_predicted_n = vp_used_n = 0
        vp_correct_used = vp_wrong_used = 0
        vp_squashes = vp_harmless_wrong = vp_reissues = 0

        # Earliest queued training commit cycle (sentinel when empty): one
        # int compare per µop instead of a deque peek.
        _NEVER = 1 << 62
        next_train = _NEVER

        # One fused iterator over the always-consumed columns: a single
        # tuple unpack per µop instead of a subscript per field.  Rarely
        # consumed columns (memory operands, values, predictor keys,
        # sequence numbers) stay indexed on demand.
        rows = zip(
            col_op, col_pc, col_line, col_srcs, col_dst,
            col_fp, col_is_branch, col_is_cond, col_produces,
        )
        for i, (op, pc, pc_line, srcs, dst,
                dst_fp, is_branch, is_cond, produces) in enumerate(rows):
            measured = i >= warmup
            is_load = op == _LOAD
            is_store = op == _STORE

            # ---- Fetch ------------------------------------------------
            if pc_line != current_line:
                current_line = pc_line
                floor = fetch_resume if fetch_resume > last_fetch else last_fetch
                line_ready = memory_fetch(pc, floor)
                if line_ready <= floor + 1:
                    line_ready = 0  # L1I hit: no extra constraint
            # The fetch queue provides front-end backpressure: fetch stalls
            # once `fetch_queue` µops are in flight between fetch and
            # dispatch, instead of racing arbitrarily far ahead.
            fetch = fetch_resume if fetch_resume > line_ready else line_ready
            if fq_len >= fq_size:
                oldest = fq_rel.popleft()
                fq_len -= 1
                if oldest > fetch:
                    fetch_queue.stalls += 1
                    fetch = oldest
            used = fetch_counts.get(fetch, 0)
            while used >= fetch_width:
                fetch += 1
                used = fetch_counts.get(fetch, 0)
            fetch_counts[fetch] = used + 1
            if is_branch and col_taken[i]:
                used = taken_counts.get(fetch, 0)
                while used >= taken_width:
                    fetch += 1
                    used = taken_counts.get(fetch, 0)
                taken_counts[fetch] = used + 1
            last_fetch = fetch

            # ---- Apply predictor trainings that have committed by now --
            while next_train <= fetch:
                __, key, actual, pred_rec = train_queue.popleft()
                predictor_train(key, actual, pred_rec)
                next_train = train_queue[0][0] if train_queue else _NEVER

            # ---- Branch prediction (and shared history maintenance) ----
            branch_redirect = 0
            if is_branch:
                # Scalar columns instead of the µop object: store-loaded
                # traces never materialise MicroOps here.
                bres = process_branch(op, pc, col_taken[i], col_target[i])
                if bres.direction_mispredict:
                    branch_redirect = 1  # resolved at execute
                elif bres.target_mispredict:
                    branch_redirect = 2  # resolved at decode

            # ---- Value prediction at fetch ------------------------------
            prediction = None
            vp_used = False
            vp_wrong = False
            eligible = (
                have_predictor
                and produces
                and (vp_all_scope or is_load)
            )
            if eligible:
                pkey = col_pkey[i]
                if is_oracle:
                    predictor.set_actual(col_value[i])
                prediction = predictor_lookup(pkey, ctx)
                if prediction is not None:
                    if predictor_speculate is not None:
                        predictor_speculate(pkey, prediction)
                    if prediction.confident:
                        vp_used = True
                        vp_wrong = prediction.value != col_value[i]
                if measured:
                    vp_eligible_n += 1
                    if prediction is not None:
                        vp_predicted_n += 1
                    if vp_used:
                        vp_used_n += 1
                        if vp_wrong:
                            vp_wrong_used += 1
                        else:
                            vp_correct_used += 1

            # ---- Dispatch (rename + window allocation) ------------------
            dispatch = fetch + frontend
            if vp_used and vp_write_bw is not None:
                # Predicted value written to the PRF through a limited
                # number of extra write ports before dispatch (Section 4
                # ablation; unlimited in the paper's baseline methodology).
                write_cycle = vp_write_bw.grant(fetch + 2)
                if write_cycle + 1 > dispatch:
                    if measured:
                        result.vp_write_delayed += 1
                    dispatch = write_cycle + 1
            # Dispatch is in order: a window-stalled µop stalls everything
            # behind it.
            if last_dispatch > dispatch:
                dispatch = last_dispatch
            if rob_len >= rob_size:
                oldest = rob_rel.popleft()
                rob_len -= 1
                if oldest > dispatch:
                    rob_stalls += 1
                    dispatch = oldest
            if iq_len >= iq_size:
                soonest = heappop(iq_rel)
                iq_len -= 1
                if soonest > dispatch:
                    iq_stalls += 1
                    dispatch = soonest
            if is_load:
                if lq_len >= lq_size:
                    oldest = lq_rel.popleft()
                    lq_len -= 1
                    if oldest > dispatch:
                        lq.stalls += 1
                        dispatch = oldest
            elif is_store:
                if sq_len >= sq_size:
                    oldest = sq_rel.popleft()
                    sq_len -= 1
                    if oldest > dispatch:
                        sq.stalls += 1
                        dispatch = oldest
            if dst is not None:
                if dst_fp:
                    if fp_prf_len >= fp_prf_size:
                        oldest = fp_prf_rel.popleft()
                        fp_prf_len -= 1
                        if oldest > dispatch:
                            fp_prf.stalls += 1
                            dispatch = oldest
                elif int_prf_len >= int_prf_size:
                    oldest = int_prf_rel.popleft()
                    int_prf_len -= 1
                    if oldest > dispatch:
                        int_prf.stalls += 1
                        dispatch = oldest
            if dispatch > dbw_cycle:
                dbw_cycle = dispatch
                dbw_used = 1
            elif dbw_used < fetch_width:
                dispatch = dbw_cycle
                dbw_used += 1
            else:
                dbw_cycle += 1
                dispatch = dbw_cycle
                dbw_used = 1
            last_dispatch = dispatch
            fq_rel.append(dispatch)
            fq_len += 1

            # ---- Operand readiness --------------------------------------
            ready = dispatch + 1
            spec_until = 0
            if reissue:
                for src in srcs:
                    src_ready = reg_ready[src]
                    if src_ready > ready:
                        ready = src_ready
                    sc = reg_spec_commit[src]
                    if sc > spec_until:
                        spec_until = sc
            else:
                # Squash-at-commit mode never marks speculative producers
                # (reg_spec_commit stays all-zero), so skip those reads.
                for src in srcs:
                    src_ready = reg_ready[src]
                    if src_ready > ready:
                        ready = src_ready

            # Store-set-predicted memory dependence: the load waits for the
            # predicted store's data.
            wait_store_seq = -1
            if is_load:
                predicted = predicted_store(pc)
                if predicted is not None:
                    for entry in reversed(store_buffer):
                        if entry[0] == predicted:
                            if entry[3] > ready:
                                ready = entry[3]
                            wait_store_seq = predicted
                            break

            # ---- Issue + execute ----------------------------------------
            free = pool_free[op]
            start = free[0]
            if ready > start:
                start = ready
            heapreplace(free, start + occs[op])
            issue = start
            used = issue_counts.get(issue, 0)
            while used >= issue_width:
                issue += 1
                used = issue_counts.get(issue, 0)
            issue_counts[issue] = used + 1
            if is_load:
                complete = load_timing(
                    pc, col_addr[i], col_size[i], issue,
                    store_buffer, wait_store_seq, result, measured,
                )
                if complete < 0:  # memory-order violation: squash younger
                    complete = -complete
                    resume = complete + redirect_extra
                    if resume > fetch_resume:
                        fetch_resume = resume
            elif is_store:
                complete = issue + 1
            else:
                complete = issue + lats[op]

            # ---- Commit ---------------------------------------------------
            commit = complete + backend
            if last_commit > commit:
                commit = last_commit
            if commit > cbw_cycle:
                cbw_cycle = commit
                cbw_used = 1
            elif cbw_used < commit_width:
                commit = cbw_cycle
                cbw_used += 1
            else:
                cbw_cycle += 1
                commit = cbw_cycle
                cbw_used = 1
            last_commit = commit

            # ---- Branch redirect -----------------------------------------
            if branch_redirect:
                if branch_redirect == 1:  # execute-resolved mispredict
                    resume = complete + redirect_extra
                    if measured:
                        branch_mispredicts += 1
                else:  # decode-resolved BTB redirect
                    resume = fetch + decode_redirect_depth
                    if measured:
                        btb_redirects += 1
                if resume > fetch_resume:
                    fetch_resume = resume
            if measured and is_cond:
                cond_branches += 1

            # ---- Value prediction outcome --------------------------------
            consumer_ready = complete
            producer_spec_commit = 0
            if eligible:
                if prediction is not None:
                    if vp_used and not vp_wrong:
                        # Correct used prediction: consumers got the value
                        # from the PRF at their own dispatch; no operand
                        # constraint.  Under selective reissue, value-
                        # speculative consumers hold their IQ entry until
                        # the producer executes and validates (Section
                        # 7.2.1's IQ pressure).
                        consumer_ready = 0
                        producer_spec_commit = complete if reissue else 0
                    elif vp_used:
                        if reissue:
                            # Idealistic selective reissue: dependents
                            # replay and see the correct value at
                            # execution time.
                            consumer_ready = complete
                            producer_spec_commit = complete
                            if measured:
                                vp_reissues += 1
                        else:
                            consumed_early = consumer_before(
                                col_srcs, col_dst, i, fetch, complete,
                                frontend, fetch_width, lookahead_cap,
                            )
                            if consumed_early:
                                # Squash at commit: flush everything younger.
                                resume = commit + redirect_extra
                                if resume > fetch_resume:
                                    fetch_resume = resume
                                predictor.on_squash()
                                store_sets.flush_inflight()
                                store_buffer.clear()
                                if measured:
                                    vp_squashes += 1
                            else:
                                # Prediction replaced at execute before any
                                # consumer issued: no recovery needed.
                                if measured:
                                    vp_harmless_wrong += 1
                    if next_train == _NEVER:
                        next_train = commit
                    train_queue.append((commit, pkey, col_value[i], prediction))
                else:
                    # Lookup missed: still train (allocation path).
                    if next_train == _NEVER:
                        next_train = commit
                    train_queue.append((commit, pkey, col_value[i], None))

            # ---- Register state update ------------------------------------
            if dst is not None:
                reg_ready[dst] = consumer_ready
                if reissue:
                    reg_spec_commit[dst] = producer_spec_commit

            # ---- Window releases ------------------------------------------
            rob_rel.append(commit)
            rob_len += 1
            heappush(iq_rel, max(issue, spec_until) if reissue else issue)
            iq_len += 1
            if is_load:
                lq_rel.append(commit)
                lq_len += 1
            elif is_store:
                sq_rel.append(commit)
                sq_len += 1
                addr = col_addr[i]
                store_buffer.append(
                    (col_seq[i], addr, addr + col_size[i], complete, commit, pc)
                )
                store_fetched(pc, col_seq[i])
                memory_store(pc, addr, commit)
            if dst is not None:
                if dst_fp:
                    fp_prf_rel.append(commit)
                    fp_prf_len += 1
                else:
                    int_prf_rel.append(commit)
                    int_prf_len += 1

            # ---- Measurement bookkeeping ----------------------------------
            if stage_trace is not None:
                stage_trace.append((col_seq[i], fetch, dispatch, ready, issue, complete, commit))
            if measured:
                if measure_start_commit is None:
                    # Cycles are counted commit-to-commit over the
                    # measurement region, immune to transient front-end
                    # backlog at the region boundary.
                    measure_start_commit = commit
                n_uops_meas += 1

            # ---- Retire per-cycle bandwidth bookkeeping -------------------
            if not (i & _PRUNE_PERIOD_MASK):
                # Cheap watermarks: issue requests are monotone in
                # last_dispatch.  (Dispatch/commit bandwidth is tracked by
                # the dict-free monotone pairs above.)  Fetch-side probes
                # are bounded below by fetch_resume and — once the fetch
                # queue has filled, which is permanent since it pops only
                # when full and pushes every µop — by the queue's oldest
                # pending release (a dispatch cycle fq_size µops back,
                # monotone), so pruning advances even on redirect-free
                # stretches where fetch_resume never moves.
                issue_bw.advance_watermark(last_dispatch)
                fetch_floor = fetch_resume
                if fq_len >= fq_size and fq_rel[0] > fetch_floor:
                    fetch_floor = fq_rel[0]
                fetch_bw.advance_watermark(fetch_floor)
                taken_bw.advance_watermark(fetch_floor)
                if vp_write_bw is not None:
                    vp_write_bw.advance_watermark(fetch_floor)

        # Flush remaining trainings (end of trace).
        while train_queue:
            __, key, actual, pred_rec = train_queue.popleft()
            predictor.train(key, actual, pred_rec)

        if measure_start_commit is None:
            measure_start_commit = 0
        rob.stalls = rob_stalls
        iq.stalls = iq_stalls
        result.n_uops = n_uops_meas
        result.cond_branches = cond_branches
        result.branch_mispredicts = branch_mispredicts
        result.btb_redirects = btb_redirects
        result.vp_eligible = vp_eligible_n
        result.vp_predicted = vp_predicted_n
        result.vp_used = vp_used_n
        result.vp_correct_used = vp_correct_used
        result.vp_wrong_used = vp_wrong_used
        result.vp_squashes = vp_squashes
        result.vp_harmless_wrong = vp_harmless_wrong
        result.vp_reissues = vp_reissues
        result.cycles = max(1, last_commit - measure_start_commit)
        result.rob_stalls = rob_stalls
        result.iq_stalls = iq_stalls
        result.l1d_misses = memory.l1d.misses
        result.l1d_accesses = memory.l1d.hits + memory.l1d.misses
        result.l2_misses = memory.l2.misses
        result.l2_accesses = memory.l2.hits + memory.l2.misses
        return result

    # ------------------------------------------------------------------

    def _load_timing(
        self,
        pc: int,
        addr: int,
        size: int,
        issue: int,
        store_buffer: deque,
        waited_seq: int,
        result: SimResult,
        measured: bool,
    ) -> int:
        """Completion cycle of a load; negative => violation squash at |value|.

        Called from ``_run`` only, which has built the memory hierarchy and
        store sets, so the components are read past their properties.
        """
        end = addr + size
        agu_done = issue + 1
        # Youngest older in-flight store overlapping this access.  Commit
        # cycles are non-decreasing in append order, so the first retired
        # entry seen scanning youngest-first means every older entry is
        # retired too — stop there instead of walking the whole buffer.
        for entry in reversed(store_buffer):
            seq, s_start, s_end, data_ready, s_commit, s_pc = entry
            if s_commit <= agu_done:
                break  # this store and everything older has retired
            if s_start < end and addr < s_end:
                if data_ready <= agu_done or seq == waited_seq:
                    # Store-to-load forwarding from the store queue.
                    return max(agu_done, data_ready) + 1
                # The load executed before an older conflicting store it was
                # not predicted to depend on: memory-order violation.
                self._store_sets.train_violation(pc, s_pc)
                if measured:
                    result.mem_violations += 1
                return -(data_ready + 2)
        access = self._memory.load(pc, addr, agu_done)
        return access.ready_cycle

    @staticmethod
    def _consumer_before(
        col_srcs,
        col_dst,
        i: int,
        fetch: int,
        complete: int,
        frontend: int,
        fetch_width: int,
        cap: int,
    ) -> bool:
        """Would any consumer of µop *i*'s destination have issued before
        *complete*?

        Estimates the earliest possible issue cycle (its dispatch) of the
        first in-window reader of the destination register, stopping at the
        first redefinition.  See module docstring for the approximation
        direction.
        """
        dst = col_dst[i]
        n = len(col_dst)
        limit = min(n, i + 1 + cap)
        for j in range(i + 1, limit):
            est_dispatch = fetch + (j - i + fetch_width - 1) // fetch_width + frontend
            if est_dispatch >= complete:
                return False  # every later consumer dispatches after execute
            if dst in col_srcs[j]:
                return True
            if col_dst[j] == dst:
                return False  # redefined before any read
        return False


def simulate(
    trace: Trace,
    predictor: ValuePredictor | None = None,
    config: CoreConfig | None = None,
    warmup: int = 0,
    workload: str | None = None,
) -> SimResult:
    """Convenience wrapper: build a :class:`CoreModel` and run *trace*."""
    model = CoreModel(config=config, predictor=predictor)
    return model.run(trace, warmup=warmup, workload=workload)
