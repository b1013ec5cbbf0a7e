"""Experiment E5 — Table 3: pQoS under DVE dynamics (join / leave / move churn).

Reproduces the paper's Table 3: obtain an assignment for the default
configuration with correlation δ = 0, then let 200 new clients join, 200
existing clients leave and 200 clients move to another zone, and report each
algorithm's pQoS **before** the churn, **after** the churn with the stale
assignment, and after the algorithm is **re-executed** on the new population.
The incremental contact-only repair policy (not in the paper) is reported as a
fourth column.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import PAPER_DEFAULT_LABEL, engine_study_config
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER, PAPER_TABLE3_PQOS
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEConfig, build_scenario

__all__ = ["run_table3", "format_table3"]

#: The measured columns: the record field behind each, in table order.
_COLUMNS = {
    "before": "pqos_before",
    "after": "pqos_after",
    "re-executed": "pqos_reexecuted",
    "incremental": "pqos_incremental",
}


def _table3_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    algorithms: tuple,
    churn: ChurnSpec,
) -> Dict[tuple, float]:
    """One churn batch on a fresh scenario: every column of every algorithm."""
    simulator = ChurnSimulator(
        scenario=build_scenario(config, seed=world_rng),
        algorithms=list(algorithms),
        churn_spec=churn,
        seed=engine_rng,
    )
    return {
        (record.algorithm, column): getattr(record, field)
        for record in simulator.run(num_epochs=1)
        for column, field in _COLUMNS.items()
    }


def run_table3(
    label: str = PAPER_DEFAULT_LABEL,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    churn: ChurnSpec | None = None,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> StudyResult:
    """Run the dynamics experiment of Table 3.

    Every run builds a fresh scenario (new topology / placements), runs one
    churn epoch for every algorithm, and records the three measurement points;
    results are averaged over runs, one row per algorithm.
    """
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    point = dict(
        config=engine_study_config(label, delay_backend),
        algorithms=tuple(algorithms),
        churn=churn or ChurnSpec(),
    )
    runs = replicate(_table3_run, [point], num_runs, seed, workers)
    return StudyResult.collect(runs, label, num_runs, algorithms, list(_COLUMNS))


def format_table3(result: StudyResult, include_paper: bool = True) -> str:
    """Render the measured (and optionally the paper's) Table 3."""
    measured = format_table(
        ["algorithm", "before", "after", "re-executed", "incremental (ours)"],
        result.table(),
        title=f"Table 3 (measured): pQoS with DVE dynamics, {result.label}, δ=0",
        float_format=".2f",
    )
    if not include_paper:
        return measured
    paper_rows = []
    for name in result.rows:
        paper = PAPER_TABLE3_PQOS.get(name)
        if paper is None:
            paper_rows.append([name, "-", "-", "-"])
        else:
            paper_rows.append([name, paper["before"], paper["after"], paper["executed"]])
    paper = format_table(
        ["algorithm", "before", "after", "executed"],
        paper_rows,
        title="Table 3 (paper): pQoS with DVE dynamics",
        float_format=".2f",
    )
    return measured + "\n\n" + paper
