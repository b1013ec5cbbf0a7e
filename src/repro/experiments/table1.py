"""Experiment E1 — Table 1: pQoS (R) across DVE configurations.

Reproduces the paper's Table 1: for each of the four DVE configurations
(5s-15z-200c-100cp … 30s-160z-2000c-1000cp) and each of the four two-phase
algorithms, report the mean fraction of clients with QoS and (in brackets) the
server resource utilisation, plus the exact MILP baseline on the two small
configurations where it is tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
from repro.experiments.runner import ReplicatedResult, run_replications
from repro.io.tables import format_table
from repro.utils.rng import SeedLike

__all__ = ["Table1Result", "run_table1", "format_table1"]

_DEFAULT_ALGORITHMS = list(PAPER_ALGORITHM_ORDER)


@dataclass(frozen=True)
class Table1Result:
    """Results of the Table 1 experiment, keyed by configuration label."""

    results: Dict[str, ReplicatedResult]
    algorithms: List[str]
    optimal_labels: List[str] = field(default_factory=list)

    def rows(self) -> List[list]:
        """Rows in the paper's layout: one row per configuration."""
        rows: List[list] = []
        for label, result in self.results.items():
            row: list = [label]
            for name in self.algorithms:
                summary = result.summaries[name]
                row.append(f"{summary.pqos.mean:.2f} ({summary.utilization.mean:.2f})")
            if "optimal" in result.summaries:
                opt = result.summaries["optimal"]
                row.append(f"{opt.pqos.mean:.2f} ({opt.utilization.mean:.2f})")
            else:
                row.append("-")
            rows.append(row)
        return rows

    def paper_rows(self) -> List[list]:
        """The corresponding rows reported by the paper (for side-by-side output)."""
        rows: List[list] = []
        for label in self.results:
            row: list = [label]
            paper_pqos = PAPER_TABLE1_PQOS.get(label, {})
            paper_util = PAPER_TABLE1_UTILIZATION.get(label, {})
            for name in self.algorithms:
                if name in paper_pqos:
                    row.append(f"{paper_pqos[name]:.2f} ({paper_util.get(name, float('nan')):.2f})")
                else:
                    row.append("-")
            if "optimal" in paper_pqos:
                opt_util = paper_util.get("optimal", float("nan"))
                row.append(f"{paper_pqos['optimal']:.2f} ({opt_util:.2f})")
            else:
                row.append("-")
            rows.append(row)
        return rows


def run_table1(
    labels: Sequence[str] = PAPER_TABLE1_LABELS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 5,
    seed: SeedLike = 0,
    include_optimal: bool = True,
    optimal_labels: Sequence[str] = PAPER_SMALL_LABELS,
    correlation: float = 0.5,
    share_topology: bool = False,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> Table1Result:
    """Run the Table 1 experiment.

    Parameters
    ----------
    labels:
        Configuration labels to evaluate (default: the paper's four).
    algorithms:
        Two-phase algorithms to compare (default: the paper's four).
    num_runs:
        Simulation runs per configuration (the paper uses 50).
    include_optimal / optimal_labels:
        Whether (and where) to also run the exact MILP baseline; by default it
        runs on the two small configurations only, as in the paper.
    correlation:
        Physical↔virtual correlation (paper default 0.5).
    share_topology:
        Reuse one topology sample across runs of a configuration (faster).
    workers:
        Worker processes for the replication engine (see
        :func:`~repro.experiments.runner.run_replications`).
    """
    algorithms = list(algorithms or _DEFAULT_ALGORITHMS)
    results: Dict[str, ReplicatedResult] = {}
    used_optimal: List[str] = []
    for label in labels:
        config = apply_delay_backend(
            config_from_label(label, correlation=correlation), delay_backend
        )
        algo_list = list(algorithms)
        if include_optimal and label in set(optimal_labels):
            algo_list.append("optimal")
            used_optimal.append(label)
        results[label] = run_replications(
            config,
            algo_list,
            num_runs=num_runs,
            seed=seed,
            share_topology=share_topology,
            workers=workers,
        )
    return Table1Result(results=results, algorithms=algorithms, optimal_labels=used_optimal)


def format_table1(result: Table1Result, include_paper: bool = True) -> str:
    """Render the measured (and optionally the paper's) Table 1."""
    headers = ["DVE conf."] + [a for a in result.algorithms] + ["optimal (MILP)"]
    parts = [
        format_table(
            headers,
            result.rows(),
            title="Table 1 (measured): pQoS (resource utilisation) per configuration",
        )
    ]
    if include_paper:
        parts.append("")
        parts.append(
            format_table(
                headers[:-1] + ["lp_solve"],
                result.paper_rows(),
                title="Table 1 (paper): pQoS (resource utilisation) per configuration",
            )
        )
    return "\n".join(parts)
