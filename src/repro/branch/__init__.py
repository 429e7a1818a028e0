"""Branch prediction substrate.

Table 2 of the paper specifies the front end we must reproduce: a TAGE
branch predictor (1 + 12 components, ~15 K entries, 20-cycle minimum
misprediction penalty), a 2-way 4 K-entry BTB and a 32-entry return address
stack.  VTAGE additionally consumes the global branch history and path
history that this package maintains.
"""
