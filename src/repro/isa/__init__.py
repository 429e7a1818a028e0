"""µop-level instruction model and trace containers.

The paper's evaluation works entirely at µop granularity on gem5-x86 ("all
the width given in Table 2 are in µ-ops").  Our substitute front end is a
trace of :class:`~repro.isa.uop.MicroOp` objects produced by the synthetic
workload kernels (see :mod:`repro.workloads`); each µop carries its actual
computed result value so the value predictors observe real value streams.
"""
