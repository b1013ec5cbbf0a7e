"""Experiment E6 — Table 4: impact of imperfect delay estimates.

Reproduces the paper's Table 4: on the default configuration, feed the
algorithms delay estimates perturbed by a multiplicative error factor
``e ∈ {1.2, 2}`` (emulating King and IDMaps respectively) and evaluate the
resulting assignments on the *true* delays, reporting pQoS and (in brackets)
resource utilisation.

Expected shape: with e = 1.2 GreZ-GreC remains the best algorithm and loses
only a few percentage points of pQoS; with e = 2 GreZ-VirC edges ahead of
GreZ-GreC (the latter is hurt twice, once per phase), and both stay far above
the delay-oblivious RanZ variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import (
    PAPER_ALGORITHM_ORDER,
    PAPER_TABLE4_PQOS,
    PAPER_TABLE4_UTILIZATION,
)
from repro.experiments.runner import ReplicatedResult, run_replications
from repro.io.tables import format_table
from repro.measurement.error import ErrorModel
from repro.measurement.estimators import DelayEstimator
from repro.utils.rng import SeedLike

__all__ = ["Table4Result", "run_table4", "format_table4"]

#: The error factors studied by the paper (King, IDMaps).
DEFAULT_ERROR_FACTORS = (1.2, 2.0)


@dataclass(frozen=True)
class Table4Result:
    """Results per error factor and algorithm."""

    label: str
    error_factors: List[float]
    results: Dict[float, ReplicatedResult]
    algorithms: List[str]

    def rows(self) -> List[list]:
        """One row per algorithm; one column per error factor: 'pQoS (R)'."""
        rows = []
        for name in self.algorithms:
            row: list = [name]
            for e in self.error_factors:
                summary = self.results[e].summaries[name]
                row.append(f"{summary.pqos.mean:.2f} ({summary.utilization.mean:.2f})")
            rows.append(row)
        return rows

    def paper_rows(self) -> List[list]:
        """The paper's Table 4 values in the same layout."""
        rows = []
        for name in self.algorithms:
            row: list = [name]
            for e in self.error_factors:
                pqos = PAPER_TABLE4_PQOS.get(e, {}).get(name)
                util = PAPER_TABLE4_UTILIZATION.get(e, {}).get(name)
                row.append("-" if pqos is None else f"{pqos:.2f} ({util:.2f})")
            rows.append(row)
        return rows


def run_table4(
    label: str = PAPER_DEFAULT_LABEL,
    error_factors: Sequence[float] = DEFAULT_ERROR_FACTORS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    correlation: float = 0.5,
    share_topology: bool = True,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> Table4Result:
    """Run the imperfect-input-data experiment of Table 4."""
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    results: Dict[float, ReplicatedResult] = {}
    for factor in error_factors:
        estimator = DelayEstimator(ErrorModel(float(factor), name=f"e={factor}"))
        results[float(factor)] = run_replications(
            config,
            algorithms,
            num_runs=num_runs,
            seed=seed,
            estimator=estimator,
            share_topology=share_topology,
            workers=workers,
        )
    return Table4Result(
        label=label,
        error_factors=[float(e) for e in error_factors],
        results=results,
        algorithms=algorithms,
    )


def format_table4(result: Table4Result, include_paper: bool = True) -> str:
    """Render the measured (and optionally the paper's) Table 4."""
    headers = ["algorithm"] + [f"e={e:g}" for e in result.error_factors]
    measured = format_table(
        headers,
        result.rows(),
        title=f"Table 4 (measured): pQoS (R) with imperfect delay estimates, {result.label}",
    )
    if not include_paper:
        return measured
    paper = format_table(
        headers,
        result.paper_rows(),
        title="Table 4 (paper): pQoS (R) with imperfect delay estimates",
    )
    return measured + "\n\n" + paper
