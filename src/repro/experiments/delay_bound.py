"""Delay-bound sensitivity experiment (extension E10).

The paper fixes the interactivity bound at D = 250 ms (FPS-grade) for Table 1
and at 200 ms for Figure 5, citing 500 ms as the RTS-grade requirement.  This
extension sweeps D across the whole range of game genres and reports how each
algorithm's pQoS and resource utilisation respond — showing where the greedy
refined phase (GreC) actually earns its bandwidth (tight bounds) and where it
is unnecessary (loose bounds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import ReplicatedResult, run_replications
from repro.io.tables import format_table
from repro.utils.rng import SeedLike

__all__ = ["DelayBoundResult", "run_delay_bound", "format_delay_bound", "DEFAULT_BOUNDS_MS"]

#: Default sweep: from very tight twitch games to RTS-grade tolerance.
DEFAULT_BOUNDS_MS = (100.0, 150.0, 200.0, 250.0, 350.0, 500.0)


@dataclass(frozen=True)
class DelayBoundResult:
    """Per-delay-bound results for each algorithm."""

    label: str
    bounds_ms: List[float]
    results: Dict[float, ReplicatedResult]
    algorithms: List[str]

    def pqos_series(self, algorithm: str) -> List[float]:
        """pQoS as a function of the delay bound for one algorithm."""
        return [self.results[b].pqos(algorithm) for b in self.bounds_ms]

    def utilization_series(self, algorithm: str) -> List[float]:
        """Resource utilisation as a function of the delay bound."""
        return [self.results[b].utilization(algorithm) for b in self.bounds_ms]

    def refinement_gain_series(self) -> List[float]:
        """pQoS gain of GreZ-GreC over GreZ-VirC at each bound (the GreC payoff)."""
        if "grez-grec" not in self.algorithms or "grez-virc" not in self.algorithms:
            raise ValueError("refinement gain needs both grez-grec and grez-virc")
        return [
            self.results[b].pqos("grez-grec") - self.results[b].pqos("grez-virc")
            for b in self.bounds_ms
        ]

    def rows(self, metric: str = "pqos") -> List[list]:
        """One row per delay bound; columns are the algorithms."""
        if metric not in ("pqos", "utilization"):
            raise ValueError("metric must be 'pqos' or 'utilization'")
        rows = []
        for bound in self.bounds_ms:
            result = self.results[bound]
            values = [
                result.pqos(a) if metric == "pqos" else result.utilization(a)
                for a in self.algorithms
            ]
            rows.append([bound] + values)
        return rows


def run_delay_bound(
    label: str = PAPER_DEFAULT_LABEL,
    bounds_ms: Sequence[float] = DEFAULT_BOUNDS_MS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    correlation: float = 0.5,
    share_topology: bool = True,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> DelayBoundResult:
    """Sweep the interactivity bound D and evaluate every algorithm at each value.

    The underlying scenarios are identical across bounds (same seed stream);
    only the bound used for decisions and evaluation changes, so the series are
    directly comparable point-for-point.
    """
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    results: Dict[float, ReplicatedResult] = {}
    for bound in bounds_ms:
        results[float(bound)] = run_replications(
            config,
            algorithms,
            num_runs=num_runs,
            seed=seed,
            delay_bound_ms=float(bound),
            share_topology=share_topology,
            workers=workers,
        )
    return DelayBoundResult(
        label=label,
        bounds_ms=[float(b) for b in bounds_ms],
        results=results,
        algorithms=algorithms,
    )


def format_delay_bound(result: DelayBoundResult) -> str:
    """Render the sweep as two tables plus the refinement-gain row."""
    headers = ["delay bound (ms)"] + result.algorithms
    part_a = format_table(
        headers,
        result.rows("pqos"),
        title=f"Delay-bound sensitivity (E10): pQoS, {result.label}",
    )
    part_b = format_table(
        headers,
        result.rows("utilization"),
        title="Delay-bound sensitivity (E10): resource utilisation",
    )
    parts = [part_a, "", part_b]
    if "grez-grec" in result.algorithms and "grez-virc" in result.algorithms:
        gain_rows = [
            [bound, gain]
            for bound, gain in zip(result.bounds_ms, result.refinement_gain_series())
        ]
        parts += [
            "",
            format_table(
                ["delay bound (ms)", "pQoS gain of GreC over VirC"],
                gain_rows,
                title="Where the refined phase pays off",
            ),
        ]
    return "\n".join(parts)
