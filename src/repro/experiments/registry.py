"""Registry of the experiment specs, keyed by experiment id.

Each experiment module defines its :class:`~repro.experiments.config.ExperimentSpec`
(``table1.TABLE1``, ``figure4.FIGURE4``, ...); this table collects them so the
CLI's ``experiment`` and ``list`` commands find every reproducible artefact in
one place.  Run a spec with :func:`repro.experiments.config.run`.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.ablation import ABLATION
from repro.experiments.baselines_compare import BASELINES
from repro.experiments.config import ExperimentSpec
from repro.experiments.controller import CONTROLLER
from repro.experiments.delay_bound import DELAY_BOUND
from repro.experiments.dynamics import DYNAMICS
from repro.experiments.federation import FEDERATION
from repro.experiments.figure4 import FIGURE4
from repro.experiments.figure5 import FIGURE5
from repro.experiments.figure6 import FIGURE6
from repro.experiments.runtime import RUNTIME
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.table1 import TABLE1
from repro.experiments.table3 import TABLE3
from repro.experiments.table4 import TABLE4

__all__ = ["EXPERIMENTS", "get_experiment", "experiment_ids"]

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        TABLE1,
        FIGURE4,
        FIGURE5,
        FIGURE6,
        TABLE3,
        TABLE4,
        ABLATION,
        BASELINES,
        RUNTIME,
        DYNAMICS,
        CONTROLLER,
        FEDERATION,
        SCENARIOS,
        DELAY_BOUND,
    )
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment spec by id (case-insensitive)."""
    key = experiment_id.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[key]


def experiment_ids() -> list[str]:
    """All experiment ids, sorted."""
    return sorted(EXPERIMENTS)
