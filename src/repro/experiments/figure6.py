"""Experiment E4 — Figure 6: impact of clustered client distributions.

Reproduces the paper's Figure 6: on the default configuration
(20s-80z-1000c-500cp), evaluate the four distribution types of its Table 2
(no clustering / physical-world clusters / virtual-world clusters / both) and
report per-algorithm pQoS and resource utilisation.

Expected shape: virtual-world clustering (types 2 and 3) sharply increases
resource utilisation for every algorithm (zone bandwidth grows quadratically
with zone population) and slightly lowers GreZ-GreC's pQoS, while
physical-world clustering alone has little effect on either metric.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, ExperimentSpec
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table
from repro.world.distributions import DISTRIBUTION_TYPES

__all__ = ["FIGURE6", "format_figure6"]


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> SweepResult:
    """One sweep point per Table 2 distribution type of ``spec.sweep``."""
    (world,) = worlds
    points = []
    for dist_type in spec.sweep:
        if dist_type not in DISTRIBUTION_TYPES:
            raise ValueError(f"unknown distribution type {dist_type}")
        physical, virtual = DISTRIBUTION_TYPES[dist_type]
        points.append(
            SweepPoint(
                int(dist_type),
                world.with_updates(physical_distribution=physical, virtual_distribution=virtual),
            )
        )
    return run_sweep(points, spec.algorithms, config, spec.share_topology)


def format_figure6(result: SweepResult) -> str:
    """Render both panels (pQoS and resource utilisation) as text tables."""
    headers = ["type", "physical", "virtual"] + result.algorithms

    def rows(metric: str) -> list:
        return [[t, *DISTRIBUTION_TYPES[t], *values] for t, *values in result.panel(metric)]

    part_a = format_table(
        headers,
        rows("pqos"),
        title=f"Figure 6(a): pQoS vs distribution type, {result.label}",
    )
    part_b = format_table(
        headers,
        rows("utilization"),
        title="Figure 6(b): resource utilisation vs distribution type",
    )
    return part_a + "\n\n" + part_b


#: Figure 6: the four Table 2 distribution types on the default configuration.
FIGURE6 = ExperimentSpec(
    experiment_id="figure6",
    paper_artifact="Figure 6",
    description="pQoS and utilisation vs clustered client distributions (types 0-3)",
    execute=_execute,
    format=format_figure6,
    sweep=tuple(DISTRIBUTION_TYPES),
)
