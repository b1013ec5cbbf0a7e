"""Experiment E8 — comparison against related-work baselines and the
centralised deployment (not in the paper, motivated by its Sections 1-2).

Two comparisons:

1. **Solver baselines** — the paper's GreZ-GreC and GreZ-VirC against the
   delay-oblivious load balancer (locally distributed cluster partitioning)
   and the nearest-server selection (mirrored-architecture style), on every
   Table 1 configuration.
2. **Architecture baseline** — GreZ-GreC on the geographically distributed
   server architecture versus GreZ-GreC on the *centralised* twin of the same
   scenario (all servers moved to the best single site), quantifying how much
   interactivity geographic distribution itself buys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.baselines.central import centralize_servers
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.experiments.config import PAPER_TABLE1_LABELS, apply_delay_backend, config_from_label
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table
from repro.metrics.summary import AggregateStat, aggregate
from repro.utils.pool import ordered_map
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.scenario import build_scenario

__all__ = [
    "CentralizationResult",
    "run_baseline_comparison",
    "run_centralization_comparison",
    "format_baseline_comparison",
]

DEFAULT_SOLVERS = ("grez-grec", "grez-virc", "nearest-server", "load-balance", "ranz-virc")


@dataclass(frozen=True)
class CentralizationResult:
    """GDSA vs centralised deployment, same algorithm, same workload."""

    label: str
    algorithm: str
    distributed_pqos: AggregateStat
    centralized_pqos: AggregateStat

    def rows(self) -> List[list]:
        """Two rows: distributed and centralised."""
        return [
            ["distributed (GDSA)", self.distributed_pqos.mean, self.distributed_pqos.std],
            ["centralised (one site)", self.centralized_pqos.mean, self.centralized_pqos.std],
        ]


def run_baseline_comparison(
    labels: Sequence[str] = PAPER_TABLE1_LABELS,
    solvers: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> SweepResult:
    """Compare the paper's algorithms against the related-work baselines per configuration."""
    points = [
        SweepPoint(label, apply_delay_backend(config_from_label(label), delay_backend))
        for label in labels
    ]
    solvers = solvers or DEFAULT_SOLVERS
    return run_sweep(points, solvers, num_runs, seed, share_topology=True, workers=workers)


def _execute_centralization_run(task) -> tuple[float, float]:
    """One distributed-vs-centralised run (worker-side; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    config, algorithm, rng = task
    scenario_rng, solve_rng = spawn_generators(rng, 2)
    scenario = build_scenario(config, seed=scenario_rng)
    central_scenario = centralize_servers(scenario)

    instance = CAPInstance.from_scenario(scenario)
    central_instance = CAPInstance.from_scenario(central_scenario)
    return (
        registry_solve(instance, algorithm, seed=solve_rng).pqos(instance),
        registry_solve(central_instance, algorithm, seed=solve_rng).pqos(central_instance),
    )


def run_centralization_comparison(
    label: str = "20s-80z-1000c-500cp",
    algorithm: str = "grez-grec",
    num_runs: int = 3,
    seed: SeedLike = 0,
    correlation: float = 0.5,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> CentralizationResult:
    """Compare the GDSA against a centralised deployment of the same servers."""
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    rng = as_generator(seed)
    run_rngs = spawn_generators(rng, num_runs)

    tasks = [(config, algorithm, run_rngs[i]) for i in range(num_runs)]
    distributed: List[float] = []
    centralized: List[float] = []
    for dist_pqos, central_pqos in ordered_map(_execute_centralization_run, tasks, workers=workers):
        distributed.append(dist_pqos)
        centralized.append(central_pqos)

    return CentralizationResult(
        label=label,
        algorithm=algorithm,
        distributed_pqos=aggregate(distributed),
        centralized_pqos=aggregate(centralized),
    )


def format_baseline_comparison(
    comparison: SweepResult,
    centralization: Optional[CentralizationResult] = None,
) -> str:
    """Render the baseline-comparison tables."""
    parts = [
        format_table(
            ["DVE conf."] + comparison.algorithms,
            comparison.panel("pqos"),
            title="Baseline comparison (E8): pQoS per configuration",
        )
    ]
    if centralization is not None:
        parts.append("")
        parts.append(
            format_table(
                ["architecture", "pQoS (mean)", "pQoS (std)"],
                centralization.rows(),
                title=(
                    f"GDSA vs centralised deployment ({centralization.algorithm}, "
                    f"{centralization.label})"
                ),
            )
        )
    return "\n".join(parts)
