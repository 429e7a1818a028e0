"""Classical value predictors evaluated against VTAGE in the paper.

The taxonomy follows Sazeides & Smith [18]: *computational* predictors (LVP,
Stride, 2-Delta Stride) apply a function to previous values of the same
instruction; *context-based* predictors (order-n FCM, D-FCM) match
patterns in the local value history.  The oracle predictor provides
the Figure 3 upper bound.
"""
