"""Shared low-level utilities: LFSRs, bit folding and index hashing.

These helpers model the small pieces of combinational logic that the paper's
hardware structures rely on: the linear feedback shift register driving the
Forward Probabilistic Counters (Section 5), the value-folding hash used by
FCM-style predictors (Section 7.1.1) and the PC/µop-index mixing used to give
every µop of a macro-op its own predictor entry (Section 7.2).
"""
