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

from typing import Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.world.distributions import DISTRIBUTION_TYPES

__all__ = ["run_figure6", "format_figure6"]


def run_figure6(
    label: str = PAPER_DEFAULT_LABEL,
    types: Sequence[int] = (0, 1, 2, 3),
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> SweepResult:
    """Run the distribution-type sweep of Figure 6: one point per Table 2 type."""
    points = []
    for dist_type in types:
        if dist_type not in DISTRIBUTION_TYPES:
            raise ValueError(f"unknown distribution type {dist_type}")
        physical, virtual = DISTRIBUTION_TYPES[dist_type]
        config = config_from_label(
            label, physical_distribution=physical, virtual_distribution=virtual
        )
        points.append(SweepPoint(int(dist_type), apply_delay_backend(config, delay_backend)))
    algorithms = algorithms or PAPER_ALGORITHM_ORDER
    return run_sweep(points, algorithms, num_runs, seed, share_topology=True, workers=workers)


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
