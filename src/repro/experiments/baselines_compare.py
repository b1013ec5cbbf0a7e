"""Experiment E8 — comparison against related-work baselines (not in the
paper, motivated by its Sections 1-2).

The paper's GreZ-GreC and GreZ-VirC against the delay-oblivious load
balancer (locally distributed cluster partitioning) and the nearest-server
selection (mirrored-architecture style), on every Table 1 configuration.
"""

from __future__ import annotations

from typing import Optional, Sequence

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.experiments.config import PAPER_TABLE1_LABELS, apply_delay_backend, config_from_label
from repro.experiments.runner import SweepPoint, SweepResult, run_sweep
from repro.io.tables import format_table
from repro.utils.rng import SeedLike

__all__ = ["run_baseline_comparison", "format_baseline_comparison"]

DEFAULT_SOLVERS = ("grez-grec", "grez-virc", "nearest-server", "load-balance", "ranz-virc")


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


def format_baseline_comparison(comparison: SweepResult) -> str:
    """Render the baseline-comparison table."""
    return format_table(
        ["DVE conf."] + comparison.algorithms,
        comparison.panel("pqos"),
        title="Baseline comparison (E8): pQoS per configuration",
    )
