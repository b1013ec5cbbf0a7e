"""Aggregation of metrics across simulation runs.

Every number the paper reports is "obtained by averaging the results of 50
simulation runs"; this module provides the small statistics containers the
experiment harness uses to aggregate per-run pQoS / resource-utilisation
values into means with dispersion estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RunningStats", "AggregateStat", "aggregate"]


@dataclass
class RunningStats:
    """Numerically stable streaming mean / variance (Welford's algorithm)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def add(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    def extend(self, values: Iterable[float]) -> None:
        """Add many observations."""
        for value in values:
            self.add(float(value))

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return float(np.sqrt(self.variance))

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count == 0:
            return 0.0
        return self.std / np.sqrt(self.count)

    def finalize(self) -> "AggregateStat":
        """Freeze into an :class:`AggregateStat`."""
        return AggregateStat(mean=self.mean, std=self.std, stderr=self.stderr, count=self.count)


@dataclass(frozen=True)
class AggregateStat:
    """Mean with dispersion, over a set of simulation runs."""

    mean: float
    std: float
    stderr: float
    count: int

    def __format__(self, spec: str) -> str:
        spec = spec or ".3f"
        return f"{self.mean:{spec}} ± {self.std:{spec}}"


def aggregate(values: Sequence[float]) -> AggregateStat:
    """Aggregate a sequence of per-run values into an :class:`AggregateStat`."""
    stats = RunningStats()
    stats.extend(values)
    return stats.finalize()
