"""Lightweight argument validation helpers.

The library is used both programmatically and from the CLI/experiment harness,
so bad parameters should fail fast with clear messages rather than surfacing
as cryptic NumPy broadcasting errors deep inside an algorithm.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]


def check_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` lies in the closed interval [0, 1]."""
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_in_range(value: float, low: float, high: float, name: str) -> float:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not np.isfinite(value) or value < low or value > high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return float(value)
