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

from typing import Dict

import numpy as np

from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.scenarios import SCENARIO_LIBRARY
from repro.experiments.config import ExperimentConfig, ExperimentSpec, engine_study_config
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.metrics.recovery import recovery_report
from repro.world.scenario import DVEConfig, build_scenario

__all__ = ["SCENARIOS", "format_scenarios"]

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


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> StudyResult:
    """Replicate every scenario of ``spec.sweep``; one row per (scenario, algorithm).

    Each (scenario, run) pair is an independent replication — fresh topology,
    placements and the Table 3 churn stream — simulated for
    ``spec.num_epochs`` epochs with the named disturbance timeline active and
    admission control shedding excess clients to the degraded pool.
    ``recovered`` is a 0/1 indicator, so its mean is the recovery rate.
    """
    for name in spec.sweep:
        if name not in SCENARIO_LIBRARY:
            raise ValueError(
                f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIO_LIBRARY))}"
            )
    (world,) = worlds
    world = engine_study_config(world)
    points = [dict(config=world, scenario=name, num_epochs=spec.num_epochs) for name in spec.sweep]
    runs = replicate(_scenario_run, points, config.num_runs, config.seed, config.workers)
    rows = [(name, ALGORITHM) for name in spec.sweep]
    return StudyResult.collect(
        runs, spec.labels[0], config.num_runs, rows, RECOVERY_METRICS, num_epochs=spec.num_epochs
    )


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


#: The scenario study: every library scenario for 16 epochs on the default
#: configuration.
SCENARIOS = ExperimentSpec(
    experiment_id="scenarios",
    paper_artifact="(extension)",
    description="Incident scenario library: recovery metrics under graceful degradation",
    execute=_execute,
    format=format_scenarios,
    sweep=tuple(sorted(SCENARIO_LIBRARY)),
    num_epochs=16,
)
