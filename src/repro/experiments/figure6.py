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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import ReplicatedResult, run_replications
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.world.distributions import DISTRIBUTION_TYPES

__all__ = ["Figure6Result", "run_figure6", "format_figure6"]


@dataclass(frozen=True)
class Figure6Result:
    """Per-distribution-type results for each algorithm."""

    label: str
    types: List[int]
    results: Dict[int, ReplicatedResult]
    algorithms: List[str]

    def pqos_series(self, algorithm: str) -> List[float]:
        """pQoS per distribution type for one algorithm."""
        return [self.results[t].pqos(algorithm) for t in self.types]

    def utilization_series(self, algorithm: str) -> List[float]:
        """Resource utilisation per distribution type for one algorithm."""
        return [self.results[t].utilization(algorithm) for t in self.types]

    def rows(self, metric: str = "pqos") -> List[list]:
        """One row per distribution type; columns are the algorithms."""
        if metric not in ("pqos", "utilization"):
            raise ValueError("metric must be 'pqos' or 'utilization'")
        rows = []
        for t in self.types:
            result = self.results[t]
            pw, vw = DISTRIBUTION_TYPES[t]
            values = [
                result.pqos(a) if metric == "pqos" else result.utilization(a)
                for a in self.algorithms
            ]
            rows.append([t, pw, vw] + values)
        return rows


def run_figure6(
    label: str = PAPER_DEFAULT_LABEL,
    types: Sequence[int] = (0, 1, 2, 3),
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    correlation: float = 0.5,
    hot_zone_factor: float = 10.0,
    share_topology: bool = True,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> Figure6Result:
    """Run the distribution-type sweep of Figure 6."""
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    results: Dict[int, ReplicatedResult] = {}
    for dist_type in types:
        if dist_type not in DISTRIBUTION_TYPES:
            raise ValueError(f"unknown distribution type {dist_type}")
        physical, virtual = DISTRIBUTION_TYPES[dist_type]
        config = apply_delay_backend(
            config_from_label(
                label,
                correlation=correlation,
                physical_distribution=physical,
                virtual_distribution=virtual,
                hot_zone_factor=hot_zone_factor,
            ),
            delay_backend,
        )
        results[int(dist_type)] = run_replications(
            config,
            algorithms,
            num_runs=num_runs,
            seed=seed,
            share_topology=share_topology,
            workers=workers,
        )
    return Figure6Result(
        label=label,
        types=[int(t) for t in types],
        results=results,
        algorithms=algorithms,
    )


def format_figure6(result: Figure6Result) -> str:
    """Render both panels (pQoS and resource utilisation) as text tables."""
    headers = ["type", "physical", "virtual"] + result.algorithms
    part_a = format_table(
        headers,
        result.rows("pqos"),
        title=f"Figure 6(a): pQoS vs distribution type, {result.label}",
    )
    part_b = format_table(
        headers,
        result.rows("utilization"),
        title="Figure 6(b): resource utilisation vs distribution type",
    )
    return part_a + "\n\n" + part_b
