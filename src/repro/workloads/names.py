"""Workload names: the Table 3 catalog rows and every name's default seed.

"We use a subset of the SPEC'00 and SPEC'06 suites ... Specifically, we use
12 integer benchmarks and 7 floating-point programs" (Section 7.3).  Each
row records the paper's program name and reference input alongside the
synthetic kernel that stands in for it (see DESIGN.md for the substitution
rationale); :mod:`repro.workloads.catalog` generates and caches the traces.

This module only names things, so it imports no generator and no numpy: a
daemon resolves a job's ``(workload, seed)`` trace identity from it without
loading the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads import scenarios


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark of Table 3."""

    name: str            # short name used across figures ("gzip")
    spec_name: str       # full SPEC identifier ("164.gzip")
    suite: str           # "INT" or "FP"
    spec_input: str      # reference input, straight from Table 3
    kernel: str          # its generator: a function of kernels_int/_fp
    seed: int
    notes: str           # calibration notes / expected behaviour
    # Loop-invariant redundancy calibration (see workloads.invariants):
    # one (count+1)-µop invariant block is spliced in every `redundancy_every`
    # kernel µops.
    redundancy_every: int = 20
    redundancy_count: int = 3


WORKLOADS: tuple[WorkloadSpec, ...] = (
    # ---- CPU2000 -------------------------------------------------------
    WorkloadSpec("gzip", "164.gzip", "INT", "input.source 60",
                 "gzip_kernel", 164,
                 "LZ match loops; mixed predictability, modest VP gains",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("wupwise", "168.wupwise", "FP", "wupwise.in",
                 "wupwise_kernel", 168,
                 "strided FP streams; 2D-Stride's best case",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("applu", "173.applu", "FP", "applu.in",
                 "applu_kernel", 173,
                 "boundary-correlated coefficients; VTAGE's case",
                 redundancy_every=16, redundancy_count=3),
    WorkloadSpec("vpr", "175.vpr", "INT",
                 "net.in arch.in place.out dum.out -nodisp -place_only "
                 "-init_t 5 -exit_t 0.005 -alpha_t 0.9412 -inner_num 2",
                 "vpr_kernel", 175,
                 "LCG-driven annealing; low-moderate predictability",
                 redundancy_every=22, redundancy_count=3),
    WorkloadSpec("art", "179.art", "FP",
                 "-scanfile c756hel.in -trainfile1 a10.img -trainfile2 hc.img "
                 "-stride 2 -startx 110 -starty 200 -endx 160 -endy 240 -objects 10",
                 "art_kernel", 179,
                 "repeated weight scans; predictable slow loads, big headroom",
                 redundancy_every=11, redundancy_count=3),
    WorkloadSpec("crafty", "186.crafty", "INT", "crafty.in",
                 "crafty_kernel", 186,
                 "almost-stable values; low baseline accuracy, needs FPC",
                 redundancy_every=25, redundancy_count=2),
    WorkloadSpec("parser", "197.parser", "INT", "ref.in 2.1.dict -batch",
                 "parser_kernel", 197,
                 "hash-chain walks with Zipf word reuse",
                 redundancy_every=18, redundancy_count=3),
    WorkloadSpec("vortex", "255.vortex", "INT", "lendian1.raw",
                 "vortex_kernel", 255,
                 "OO dispatch; alternating tags, low baseline accuracy",
                 redundancy_every=11, redundancy_count=3),
    # ---- CPU2006 -------------------------------------------------------
    WorkloadSpec("bzip2", "401.bzip2", "INT", "input.source 280",
                 "bzip2_kernel", 401,
                 "histogram/cumulative counters; 2D-Stride's other best case",
                 redundancy_every=18, redundancy_count=3),
    WorkloadSpec("gcc", "403.gcc", "INT", "166.i",
                 "gcc_kernel", 403,
                 "grammar-driven kinds correlated with branch history; VTAGE",
                 redundancy_every=16, redundancy_count=3),
    WorkloadSpec("gamess", "416.gamess", "FP", "cytosine.2.config",
                 "gamess_kernel", 416,
                 "phase-switching coefficients; low baseline accuracy",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("mcf", "429.mcf", "INT", "inp.in",
                 "mcf_kernel", 429,
                 "DRAM pointer chase; huge oracle headroom",
                 redundancy_every=30, redundancy_count=2),
    WorkloadSpec("milc", "433.milc", "FP", "su3imp.in",
                 "milc_kernel", 433,
                 "streaming, near-unpredictable; FPC trap -> tiny slowdown",
                 redundancy_every=50, redundancy_count=2),
    WorkloadSpec("namd", "444.namd", "FP", "namd.input",
                 "namd_kernel", 444,
                 "~90% coverage, no dependence-limited work: marginal speedup",
                 redundancy_every=9, redundancy_count=3),
    WorkloadSpec("gobmk", "445.gobmk", "INT", "13x13.tst",
                 "gobmk_kernel", 445,
                 "almost-stable ownership; low baseline accuracy",
                 redundancy_every=25, redundancy_count=2),
    WorkloadSpec("hmmer", "456.hmmer", "INT", "nph3.hmm",
                 "hmmer_kernel", 456,
                 "Viterbi DP; quasi-linear scores, moderate stride cover",
                 redundancy_every=20, redundancy_count=3),
    WorkloadSpec("sjeng", "458.sjeng", "INT", "ref.txt",
                 "sjeng_kernel", 458,
                 "chess search; chaotic hashes, low baseline accuracy",
                 redundancy_every=30, redundancy_count=2),
    WorkloadSpec("h264ref", "464.h264ref", "INT",
                 "foreman_ref_encoder_baseline.cfg",
                 "h264_kernel", 464,
                 "predictable divisions gate the critical path: small "
                 "coverage, large speedup",
                 redundancy_every=30, redundancy_count=2),
    WorkloadSpec("lbm", "470.lbm", "FP", "reference.dat",
                 "lbm_kernel", 470,
                 "streaming stencil; prefetcher territory, small VP gains",
                 redundancy_every=25, redundancy_count=2),
)

_BY_NAME = {spec.name: spec for spec in WORKLOADS}

INT_WORKLOADS = tuple(w.name for w in WORKLOADS if w.suite == "INT")
FP_WORKLOADS = tuple(w.name for w in WORKLOADS if w.suite == "FP")
ALL_WORKLOADS = tuple(w.name for w in WORKLOADS)


def resolve_seed(name: str, seed: int | None = None) -> int:
    """The effective build seed for *name*: explicit, else the catalog /
    scenario default.  This is the seed component of every trace identity
    (in-process cache and on-disk store)."""
    if seed is not None:
        return seed
    params = scenarios.parse_scenario_name(name)
    if params is not None:
        return params.default_seed()
    return get_spec(name).seed


def get_spec(name: str) -> WorkloadSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(ALL_WORKLOADS)}"
        ) from None


def known_workload(name: str) -> bool:
    """True for catalog benchmarks and parameterised scenario names."""
    return name in _BY_NAME or scenarios.is_scenario_name(name)
