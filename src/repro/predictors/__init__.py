"""Classical value predictors evaluated against VTAGE in the paper.

The taxonomy follows Sazeides & Smith [18]: *computational* predictors (LVP,
Stride, 2-Delta Stride) apply a function to previous values of the same
instruction; *context-based* predictors (order-n FCM, D-FCM) match
patterns in the local value history.  The oracle predictor provides
the Figure 3 upper bound.
"""

from repro.predictors.base import (
    FULL_TAG_BITS,
    Prediction,
    PredictionContext,
    ValuePredictor,
)
from repro.predictors.fcm import DifferentialFCMPredictor, FCMPredictor
from repro.predictors.lvp import LastValuePredictor
from repro.predictors.oracle import OraclePredictor
from repro.predictors.stride import StridePredictor, TwoDeltaStridePredictor

__all__ = [
    "FULL_TAG_BITS",
    "DifferentialFCMPredictor",
    "FCMPredictor",
    "LastValuePredictor",
    "OraclePredictor",
    "Prediction",
    "PredictionContext",
    "StridePredictor",
    "TwoDeltaStridePredictor",
    "ValuePredictor",
]
