"""Experiment (extension) — incident scenarios and recovery tracking.

Runs every named scenario of the incident library (regional outage, flash
crowd, diurnal wave, maintenance calendar, link degradation and the
composed outage + flash crowd) through the churn simulator with graceful
degradation enabled, and aggregates the recovery metrics — time to recover,
pQoS dip depth / area, degraded client-epochs — across independent
replications.  The point of the study is robustness, not raw pQoS: every
world is pushed into (possibly infeasible) territory and the engine must
shed, track and re-admit instead of crashing.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.scenarios import SCENARIO_LIBRARY
from repro.experiments.config import PAPER_DEFAULT_LABEL, engine_study_config
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.metrics.recovery import recovery_report
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEConfig, build_scenario

__all__ = ["run_scenarios", "format_scenarios"]

#: Recovery metrics reported per (scenario, algorithm), in column order.
RECOVERY_METRICS = (
    "time_to_recover",
    "dip_depth",
    "dip_area",
    "degraded_client_epochs",
    "max_clients_degraded",
    "recovered",
)

#: The algorithm every scenario runs.
ALGORITHM = "grez-grec"

#: Epochs a shed client waits in the degraded pool before it abandons.
PATIENCE_EPOCHS = 6


def _scenario_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    scenario: str,
    num_epochs: int,
) -> Dict[tuple, float]:
    """One replication of one scenario: its recovery metrics."""
    simulator = ChurnSimulator(
        scenario=build_scenario(config, seed=world_rng),
        algorithms=[ALGORITHM],
        seed=engine_rng,
        scenario_timeline=scenario,
        admission_policy=AdmissionPolicy(patience_epochs=PATIENCE_EPOCHS),
    )
    report = recovery_report(list(simulator.stream(num_epochs)), algorithm=ALGORITHM)
    values = (
        float(report.time_to_recover),
        report.dip_depth,
        report.dip_area,
        float(report.degraded_client_epochs),
        float(report.max_clients_degraded),
        1.0 if report.recovered else 0.0,
    )
    return {((scenario, ALGORITHM), m): v for m, v in zip(RECOVERY_METRICS, values)}


def run_scenarios(
    label: str = PAPER_DEFAULT_LABEL,
    scenarios: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 16,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> StudyResult:
    """Run the incident-scenario recovery experiment.

    Each (scenario, run) pair is an independent replication — fresh topology,
    placements and the Table 3 churn stream — simulated for ``num_epochs``
    epochs with the named disturbance timeline active and admission control
    shedding excess clients to the degraded pool.  Recovery metrics are
    computed per replication and aggregated across runs, one row per
    (scenario, algorithm); ``recovered`` is a 0/1 indicator, so its mean is
    the recovery rate.
    """
    scenarios = list(scenarios or sorted(SCENARIO_LIBRARY))
    for name in scenarios:
        if name not in SCENARIO_LIBRARY:
            raise ValueError(
                f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIO_LIBRARY))}"
            )
    config = engine_study_config(label, delay_backend)
    points = [dict(config=config, scenario=name, num_epochs=num_epochs) for name in scenarios]
    runs = replicate(_scenario_run, points, num_runs, seed, workers)
    rows = [(name, ALGORITHM) for name in scenarios]
    return StudyResult.collect(runs, label, num_runs, rows, RECOVERY_METRICS, num_epochs=num_epochs)


def format_scenarios(result: StudyResult) -> str:
    """Render the per-scenario recovery table."""
    headers = [
        "scenario",
        "algorithm",
        "ttr (epochs)",
        "dip depth",
        "dip area",
        "degraded c-e",
        "max pool",
        "recovered",
    ]
    title = (
        f"Incident scenarios: recovery metrics, {result.label}, "
        f"{result.setting['num_epochs']} epochs, patience={PATIENCE_EPOCHS}, "
        f"{result.num_runs} runs"
    )
    return format_table(headers, result.table(), title=title, float_format=".3f")
