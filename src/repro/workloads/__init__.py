"""Synthetic SPEC-substitute workloads (see DESIGN.md, substitution table).

The paper evaluates on SimPoint slices of 19 SPEC CPU2000/2006 benchmarks
(Table 3).  Without SPEC binaries or gem5, we generate µop traces from
small kernels that compute real value streams calibrated per benchmark;
:mod:`repro.workloads.catalog` maps each Table 3 entry to its kernel.
"""

from repro.workloads.builder import TraceBuilder
from repro.workloads.catalog import (
    ALL_WORKLOADS,
    FP_WORKLOADS,
    INT_WORKLOADS,
    WORKLOADS,
    WorkloadSpec,
    build_trace,
    clear_trace_cache,
    get_spec,
    known_workload,
    resolve_seed,
    trace_cache_stats,
)
from repro.workloads.scenarios import (
    ScenarioParams,
    is_scenario_name,
    parse_scenario_name,
    scenario_axis,
)
from repro.workloads.store import (
    TRACE_DIR_ENV,
    TraceStore,
    default_trace_store,
    trace_key,
)

__all__ = [
    "ALL_WORKLOADS",
    "FP_WORKLOADS",
    "INT_WORKLOADS",
    "ScenarioParams",
    "TRACE_DIR_ENV",
    "TraceBuilder",
    "TraceStore",
    "WORKLOADS",
    "WorkloadSpec",
    "build_trace",
    "clear_trace_cache",
    "default_trace_store",
    "get_spec",
    "is_scenario_name",
    "known_workload",
    "parse_scenario_name",
    "resolve_seed",
    "scenario_axis",
    "trace_cache_stats",
    "trace_key",
]
