"""Experiment E2 — Figure 4: CDF of client→target-server delays.

Reproduces the paper's Figure 4: for the largest configuration
(30s-160z-2000c-1000cp) plot, for every algorithm, the cumulative distribution
of the communication delays from all clients to their target servers over the
[250 ms, 500 ms] range.  The paper's qualitative finding: GreZ-GreC not only
has the highest fraction of clients within the bound but also keeps the
clients *without* QoS closest to the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.config import apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import run_replications
from repro.io.tables import format_table
from repro.metrics.cdf import EmpiricalCDF
from repro.utils.rng import SeedLike

__all__ = ["Figure4Result", "run_figure4", "format_figure4"]

#: Configuration used by the paper for Figure 4.
FIGURE4_LABEL = "30s-160z-2000c-1000cp"


@dataclass(frozen=True)
class Figure4Result:
    """Per-algorithm delay CDFs on the Figure 4 configuration."""

    label: str
    cdfs: Dict[str, EmpiricalCDF]
    pqos: Dict[str, float]

    def rows(self) -> List[list]:
        """One row per grid point: threshold followed by each algorithm's CDF value."""
        algorithms = list(self.cdfs)
        grid = self.cdfs[algorithms[0]].grid
        rows = []
        for i, threshold in enumerate(grid):
            rows.append([float(threshold)] + [float(self.cdfs[a].values[i]) for a in algorithms])
        return rows

    def algorithms(self) -> List[str]:
        """Algorithm names, in insertion order."""
        return list(self.cdfs)


def run_figure4(
    label: str = FIGURE4_LABEL,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    correlation: float = 0.5,
    grid: Optional[np.ndarray] = None,
    share_topology: bool = True,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> Figure4Result:
    """Run the Figure 4 experiment and return per-algorithm delay CDFs."""
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    if grid is None:
        grid = np.linspace(250.0, 500.0, 26)
    result = run_replications(
        config,
        algorithms,
        num_runs=num_runs,
        seed=seed,
        collect_delays=True,
        cdf_grid=grid,
        share_topology=share_topology,
        workers=workers,
    )
    cdfs = {
        name: result.summaries[name].delay_cdf
        for name in algorithms
        if result.summaries[name].delay_cdf is not None
    }
    pqos = {name: result.summaries[name].pqos.mean for name in algorithms}
    return Figure4Result(label=label, cdfs=cdfs, pqos=pqos)


def format_figure4(result: Figure4Result) -> str:
    """Render the CDF series as a plain-text table (one column per algorithm)."""
    algorithms = result.algorithms()
    headers = ["delay (ms)"] + algorithms
    table = format_table(
        headers,
        result.rows(),
        title=f"Figure 4: CDF of client→target delays, {result.label}",
    )
    pqos_line = "pQoS: " + ", ".join(f"{a}={result.pqos[a]:.3f}" for a in algorithms)
    return table + "\n" + pqos_line
