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
from typing import Dict, List

from repro.experiments.config import ExperimentConfig, ExperimentSpec, run
from repro.experiments.runner import run_replications
from repro.io.tables import format_table
from repro.metrics.cdf import FIGURE4_GRID_MS, EmpiricalCDF
from repro.utils.rng import SeedLike

__all__ = ["FIGURE4", "Figure4Result", "run_figure4", "format_figure4"]

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


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> Figure4Result:
    """Per-algorithm delay CDFs on :data:`~repro.metrics.cdf.FIGURE4_GRID_MS`."""
    (world,) = worlds
    result = run_replications(
        world,
        spec.algorithms,
        num_runs=config.num_runs,
        seed=config.seed,
        collect_delays=True,
        cdf_grid=FIGURE4_GRID_MS,
        share_topology=spec.share_topology,
        workers=config.workers,
    )
    cdfs = {
        name: result.summaries[name].delay_cdf
        for name in spec.algorithms
        if result.summaries[name].delay_cdf is not None
    }
    pqos = {name: result.summaries[name].pqos.mean for name in spec.algorithms}
    return Figure4Result(label=spec.labels[0], cdfs=cdfs, pqos=pqos)


def run_figure4(num_runs: int, seed: SeedLike = 0) -> Figure4Result:
    """Run :data:`FIGURE4` serially: ``num_runs`` replications from ``seed``."""
    return run(FIGURE4, ExperimentConfig(num_runs=num_runs, seed=seed))


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


#: Figure 4: the four paper algorithms on the largest configuration, every
#: replication on one shared topology.
FIGURE4 = ExperimentSpec(
    experiment_id="figure4",
    paper_artifact="Figure 4",
    description="CDF of client-to-target-server delays on 30s-160z-2000c-1000cp",
    execute=_execute,
    format=format_figure4,
    labels=(FIGURE4_LABEL,),
)
