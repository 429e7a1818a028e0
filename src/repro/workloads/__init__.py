"""Synthetic SPEC-substitute workloads (see DESIGN.md, substitution table).

The paper evaluates on SimPoint slices of 19 SPEC CPU2000/2006 benchmarks
(Table 3).  Without SPEC binaries or gem5, we generate µop traces from
small kernels that compute real value streams calibrated per benchmark;
:mod:`repro.workloads.catalog` maps each Table 3 entry to its kernel.
"""
