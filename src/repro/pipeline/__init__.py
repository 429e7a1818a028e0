"""Cycle-level out-of-order core model (the gem5 substitute).

See DESIGN.md for the substitution argument: the paper measures value
prediction on a gem5-x86 cycle-accurate core; we reproduce the same
structural configuration (Table 2) with a trace-driven one-pass interval
scheduler, which exposes the same dependence-breaking mechanism value
prediction exploits.
"""
