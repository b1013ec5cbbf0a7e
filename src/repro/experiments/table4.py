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

from typing import Optional, Sequence

from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import (
    PAPER_ALGORITHM_ORDER,
    PAPER_TABLE4_PQOS,
    PAPER_TABLE4_UTILIZATION,
)
from repro.experiments.runner import SweepPoint, SweepResult, qos_cell, run_sweep
from repro.io.tables import format_table
from repro.measurement.error import ErrorModel
from repro.measurement.estimators import DelayEstimator
from repro.utils.rng import SeedLike

__all__ = ["run_table4", "format_table4"]

#: The error factors studied by the paper (King, IDMaps).
DEFAULT_ERROR_FACTORS = (1.2, 2.0)


def run_table4(
    label: str = PAPER_DEFAULT_LABEL,
    error_factors: Sequence[float] = DEFAULT_ERROR_FACTORS,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> SweepResult:
    """Run the imperfect-input-data experiment of Table 4: one point per error factor."""
    config = apply_delay_backend(config_from_label(label), delay_backend)
    points = [
        SweepPoint(
            float(factor),
            config,
            estimator=DelayEstimator(ErrorModel(float(factor), name=f"e={factor}")),
        )
        for factor in error_factors
    ]
    algorithms = algorithms or PAPER_ALGORITHM_ORDER
    return run_sweep(points, algorithms, num_runs, seed, share_topology=True, workers=workers)


def format_table4(result: SweepResult) -> str:
    """Render the measured and the paper's Table 4.

    One row per algorithm; one "pQoS (R)" column per error factor.
    """
    headers = ["algorithm"] + [f"e={e:g}" for e in result.keys]
    measured = format_table(
        headers,
        [[name] + [result.cell(e, name) for e in result.keys] for name in result.algorithms],
        title=f"Table 4 (measured): pQoS (R) with imperfect delay estimates, {result.label}",
    )
    paper_rows = []
    for name in result.algorithms:
        row: list = [name]
        for e in result.keys:
            pqos = PAPER_TABLE4_PQOS.get(e, {}).get(name)
            util = PAPER_TABLE4_UTILIZATION.get(e, {}).get(name)
            row.append("-" if pqos is None else qos_cell(pqos, util))
        paper_rows.append(row)
    paper = format_table(
        headers,
        paper_rows,
        title="Table 4 (paper): pQoS (R) with imperfect delay estimates",
    )
    return measured + "\n\n" + paper
