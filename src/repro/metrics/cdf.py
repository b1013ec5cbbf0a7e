"""Empirical cumulative distribution functions of per-client delays.

Figure 4 of the paper plots the CDF of the delays "from all clients ... to
their target server" for each algorithm over the delay range [250, 500] ms.
:func:`delay_cdf` computes the same curve: for a grid of delay thresholds it
reports the fraction of clients whose delay does not exceed the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EmpiricalCDF", "delay_cdf", "merge_cdfs", "FIGURE4_GRID_MS"]

#: The x-axis of the paper's Figure 4: 26 delay thresholds from 250 to 500 ms.
FIGURE4_GRID_MS = np.linspace(250.0, 500.0, 26)
FIGURE4_GRID_MS.setflags(write=False)


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical CDF sampled on a fixed grid.

    Attributes
    ----------
    grid:
        The thresholds at which the CDF is evaluated (ms).
    values:
        ``P(delay <= grid[i])`` for each grid point; non-decreasing in ``i``.
    num_samples:
        Number of underlying samples.
    """

    grid: np.ndarray
    values: np.ndarray
    num_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=np.float64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have the same shape")
        if self.grid.ndim != 1:
            raise ValueError("grid must be 1-D")
        if np.any(np.diff(self.grid) < 0):
            raise ValueError("grid must be non-decreasing")
        if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
            raise ValueError("CDF values must lie in [0, 1]")

    def at(self, threshold: float) -> float:
        """CDF value at an arbitrary threshold (step interpolation)."""
        idx = np.searchsorted(self.grid, threshold, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.values[min(idx, self.values.size - 1)])


def delay_cdf(
    delays: np.ndarray,
    grid: np.ndarray | None = None,
) -> EmpiricalCDF:
    """Empirical CDF of per-client delays on a grid of thresholds.

    With ``grid`` omitted, :data:`FIGURE4_GRID_MS` is used.
    """
    delays = np.asarray(delays, dtype=np.float64)
    if delays.ndim != 1:
        raise ValueError("delays must be a 1-D array")
    grid = FIGURE4_GRID_MS if grid is None else np.asarray(grid, dtype=np.float64)
    if delays.size == 0:
        return EmpiricalCDF(grid=grid, values=np.ones_like(grid), num_samples=0)
    sorted_delays = np.sort(delays)
    counts = np.searchsorted(sorted_delays, grid, side="right")
    return EmpiricalCDF(grid=grid, values=counts / delays.size, num_samples=int(delays.size))


def merge_cdfs(cdfs: list[EmpiricalCDF]) -> EmpiricalCDF:
    """Average several CDFs sampled on the same grid (multi-run averaging).

    The result's value at each grid point is the sample-size-weighted mean of
    the input CDFs, i.e. the CDF of the pooled sample.
    """
    if not cdfs:
        raise ValueError("merge_cdfs needs at least one CDF")
    grid = cdfs[0].grid
    for cdf in cdfs[1:]:
        if cdf.grid.shape != grid.shape or not np.allclose(cdf.grid, grid):
            raise ValueError("all CDFs must share the same grid")
    total = sum(c.num_samples for c in cdfs)
    if total == 0:
        return EmpiricalCDF(grid=grid, values=np.ones_like(grid), num_samples=0)
    weighted = sum(c.values * c.num_samples for c in cdfs) / total
    return EmpiricalCDF(grid=grid, values=weighted, num_samples=total)
