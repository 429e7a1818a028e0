"""Memory system substrate matching Table 2 of the paper.

L1D 4-way 32 KB (2 cycles, 64 MSHRs), unified L2 16-way 2 MB (12 cycles,
stride prefetcher of degree 8 / distance 1), single-channel DDR3-1600 with
75-185 cycle read latency, and the Store Sets memory dependence predictor
of Chrysos & Emer [5].
"""
