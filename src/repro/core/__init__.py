"""The paper's primary contributions: VTAGE, FPC and the hybrid scheme.

* :class:`~repro.core.vtage.VTAGEPredictor` — the Value TAgged GEometric
  predictor (Section 6), the first value predictor indexed by global branch
  and path history.
* :class:`~repro.core.confidence.ForwardProbabilisticCounters` — FPC
  (Section 5), probabilistic 3-bit confidence counters that emulate 6/7-bit
  counters and push accuracy beyond 99.5 %.
* :class:`~repro.core.hybrid.HybridPredictor` — the simple agree-gated
  VTAGE + 2D-Stride combination of Section 7.1.2.
"""
