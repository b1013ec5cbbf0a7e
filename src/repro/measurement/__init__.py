"""Network measurement substrate: delay-estimation error models and estimators.

Implements the imperfect-input-data model of the paper's Table 4 experiment
(King with error factor 1.2, IDMaps with error factor 2.0).
"""

from repro.measurement.error import (
    IDMAPS,
    KING,
    PERFECT,
    ErrorModel,
    apply_multiplicative_error,
)
from repro.measurement.estimators import DelayEstimator

__all__ = [
    "ErrorModel",
    "PERFECT",
    "KING",
    "IDMAPS",
    "apply_multiplicative_error",
    "DelayEstimator",
]
