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

from typing import Dict, Optional, Sequence

import numpy as np

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.baselines.central import centralize_servers
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.experiments.config import (
    PAPER_DEFAULT_LABEL,
    PAPER_TABLE1_LABELS,
    apply_delay_backend,
    config_from_label,
)
from repro.experiments.runner import StudyResult, SweepPoint, SweepResult, replicate, run_sweep
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEConfig, build_scenario

__all__ = [
    "run_baseline_comparison",
    "run_centralization_comparison",
    "format_baseline_comparison",
]

DEFAULT_SOLVERS = ("grez-grec", "grez-virc", "nearest-server", "load-balance", "ranz-virc")

#: The algorithm both deployments of the centralisation comparison run.
CENTRALIZATION_ALGORITHM = "grez-grec"

#: The two rows of the centralisation comparison.
DISTRIBUTED = "distributed (GDSA)"
CENTRALIZED = "centralised (one site)"


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


def _centralization_run(
    world_rng: np.random.Generator, engine_rng: np.random.Generator, config: DVEConfig
) -> Dict[tuple, float]:
    """One distributed-vs-centralised run: the pQoS of both deployments."""
    scenario = build_scenario(config, seed=world_rng)
    instance = CAPInstance.from_scenario(scenario)
    central_instance = CAPInstance.from_scenario(centralize_servers(scenario))
    return {
        (row, "pqos"): registry_solve(inst, CENTRALIZATION_ALGORITHM, seed=engine_rng).pqos(inst)
        for row, inst in ((DISTRIBUTED, instance), (CENTRALIZED, central_instance))
    }


def run_centralization_comparison(
    label: str = PAPER_DEFAULT_LABEL,
    num_runs: int = 3,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> StudyResult:
    """Compare the GDSA against a centralised deployment of the same servers.

    One row per deployment, one ``pqos`` column.
    """
    point = dict(config=apply_delay_backend(config_from_label(label), delay_backend))
    runs = replicate(_centralization_run, [point], num_runs, seed, workers)
    return StudyResult.collect(runs, label, num_runs, [DISTRIBUTED, CENTRALIZED], ["pqos"])


def format_baseline_comparison(
    comparison: SweepResult,
    centralization: Optional[StudyResult] = None,
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
        rows = []
        for row in centralization.rows:
            stat = centralization.stats[(row, "pqos")]
            rows.append([row, stat.mean, stat.std])
        parts.append("")
        parts.append(
            format_table(
                ["architecture", "pQoS (mean)", "pQoS (std)"],
                rows,
                title=(
                    f"GDSA vs centralised deployment ({CENTRALIZATION_ALGORITHM}, "
                    f"{centralization.label})"
                ),
            )
        )
    return "\n".join(parts)
