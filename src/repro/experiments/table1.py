"""Experiment E1 — Table 1: pQoS (R) across DVE configurations.

Reproduces the paper's Table 1: for each of the four DVE configurations
(5s-15z-200c-100cp … 30s-160z-2000c-1000cp) and each of the four two-phase
algorithms, report the mean fraction of clients with QoS and (in brackets) the
server resource utilisation, plus the exact MILP baseline on the two small
configurations where it is tractable.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import (
    PAPER_SMALL_LABELS,
    PAPER_TABLE1_LABELS,
    apply_delay_backend,
    config_from_label,
)
from repro.experiments.paper_values import (
    PAPER_ALGORITHM_ORDER,
    PAPER_TABLE1_PQOS,
    PAPER_TABLE1_UTILIZATION,
)
from repro.experiments.runner import SweepPoint, SweepResult, qos_cell, run_sweep
from repro.io.tables import format_table
from repro.utils.rng import SeedLike

__all__ = ["run_table1", "format_table1"]


def run_table1(
    labels: Sequence[str] = PAPER_TABLE1_LABELS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 5,
    seed: SeedLike = 0,
    optimal_labels: Sequence[str] = PAPER_SMALL_LABELS,
    share_topology: bool = False,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> SweepResult:
    """Run the Table 1 experiment: one sweep point per configuration label.

    Parameters
    ----------
    labels:
        Configuration labels to evaluate (default: the paper's four).
    algorithms:
        Two-phase algorithms to compare (default: the paper's four).
    num_runs:
        Simulation runs per configuration (the paper uses 50).
    optimal_labels:
        Where to also run the exact MILP baseline; by default on the two small
        configurations only, as in the paper (``()`` skips it everywhere).
    share_topology:
        Reuse one topology sample across runs of a configuration (faster).
    workers:
        Worker processes for the replication engine (see
        :func:`~repro.experiments.runner.run_replications`).
    """
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    points = [
        SweepPoint(
            label,
            apply_delay_backend(config_from_label(label), delay_backend),
            algorithms=(*algorithms, "optimal") if label in optimal_labels else None,
        )
        for label in labels
    ]
    return run_sweep(points, algorithms, num_runs, seed, share_topology, workers)


def format_table1(result: SweepResult) -> str:
    """Render the measured and the paper's Table 1."""
    columns = [*result.algorithms, "optimal"]
    headers = ["DVE conf.", *result.algorithms, "optimal (MILP)"]
    measured = [[label] + [result.cell(label, name) for name in columns] for label in result.keys]
    parts = [
        format_table(
            headers,
            measured,
            title="Table 1 (measured): pQoS (resource utilisation) per configuration",
        )
    ]
    paper = []
    for label in result.keys:
        pqos = PAPER_TABLE1_PQOS.get(label, {})
        util = PAPER_TABLE1_UTILIZATION.get(label, {})
        paper.append(
            [label]
            + [
                qos_cell(pqos[name], util.get(name, float("nan"))) if name in pqos else "-"
                for name in columns
            ]
        )
    parts.append("")
    parts.append(
        format_table(
            headers[:-1] + ["lp_solve"],
            paper,
            title="Table 1 (paper): pQoS (resource utilisation) per configuration",
        )
    )
    return "\n".join(parts)
