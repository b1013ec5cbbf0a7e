"""Experiment E3 — Figure 5: impact of the physical↔virtual correlation.

Reproduces the paper's Figure 5: on the default configuration
(20s-80z-1000c-500cp) with delay bound D = 200 ms, sweep the correlation
parameter δ over {0, 0.2, ..., 1.0} and report, per algorithm, (a) pQoS and
(b) resource utilisation.

Expected shape (the paper's finding): the pQoS of the delay-aware initial
assignments (GreZ-VirC, GreZ-GreC) increases markedly with δ while the RanZ
variants stay roughly flat, and GreZ-GreC's resource utilisation falls as δ
grows (fewer clients need forwarding when their zone's server is nearby).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import ReplicatedResult, run_replications
from repro.io.tables import format_table
from repro.utils.rng import SeedLike

__all__ = ["Figure5Result", "run_figure5", "format_figure5"]

#: Correlation values swept by the paper.
DEFAULT_CORRELATIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
#: The delay bound used for Figure 5 (the paper sets D = 200 ms here).
FIGURE5_DELAY_BOUND_MS = 200.0


@dataclass(frozen=True)
class Figure5Result:
    """Per-correlation results for each algorithm."""

    label: str
    correlations: List[float]
    results: Dict[float, ReplicatedResult]
    algorithms: List[str]

    def pqos_series(self, algorithm: str) -> List[float]:
        """pQoS as a function of correlation for one algorithm."""
        return [self.results[c].pqos(algorithm) for c in self.correlations]

    def utilization_series(self, algorithm: str) -> List[float]:
        """Resource utilisation as a function of correlation for one algorithm."""
        return [self.results[c].utilization(algorithm) for c in self.correlations]

    def rows(self, metric: str = "pqos") -> List[list]:
        """One row per correlation value; columns are the algorithms."""
        if metric not in ("pqos", "utilization"):
            raise ValueError("metric must be 'pqos' or 'utilization'")
        rows = []
        for c in self.correlations:
            result = self.results[c]
            values = [
                result.pqos(a) if metric == "pqos" else result.utilization(a)
                for a in self.algorithms
            ]
            rows.append([c] + values)
        return rows


def run_figure5(
    label: str = PAPER_DEFAULT_LABEL,
    correlations: Sequence[float] = DEFAULT_CORRELATIONS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    delay_bound_ms: float = FIGURE5_DELAY_BOUND_MS,
    share_topology: bool = True,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> Figure5Result:
    """Run the correlation sweep of Figure 5."""
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    results: Dict[float, ReplicatedResult] = {}
    for delta in correlations:
        config = apply_delay_backend(
            config_from_label(label, correlation=float(delta), delay_bound_ms=delay_bound_ms),
            delay_backend,
        )
        results[float(delta)] = run_replications(
            config,
            algorithms,
            num_runs=num_runs,
            seed=seed,
            share_topology=share_topology,
            workers=workers,
        )
    return Figure5Result(
        label=label,
        correlations=[float(c) for c in correlations],
        results=results,
        algorithms=algorithms,
    )


def format_figure5(result: Figure5Result) -> str:
    """Render both panels (pQoS and resource utilisation) as text tables."""
    headers = ["correlation"] + result.algorithms
    part_a = format_table(
        headers,
        result.rows("pqos"),
        title=(
            f"Figure 5(a): pQoS vs correlation, {result.label}, "
            f"D={FIGURE5_DELAY_BOUND_MS:.0f} ms"
        ),
    )
    part_b = format_table(
        headers,
        result.rows("utilization"),
        title="Figure 5(b): resource utilisation vs correlation",
    )
    return part_a + "\n\n" + part_b
