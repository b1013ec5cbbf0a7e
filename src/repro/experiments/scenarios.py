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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.scenarios import SCENARIO_LIBRARY
from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.io.tables import format_table
from repro.metrics.recovery import recovery_report
from repro.metrics.summary import AggregateStat, GroupedRunningStats
from repro.utils.pool import ordered_map
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.scenario import build_scenario

__all__ = ["ScenariosResult", "run_scenarios", "format_scenarios"]

#: Recovery metrics reported per (scenario, algorithm), in column order.
RECOVERY_METRICS = (
    "time_to_recover",
    "dip_depth",
    "dip_area",
    "degraded_client_epochs",
    "max_clients_degraded",
    "recovered",
)


@dataclass(frozen=True)
class ScenariosResult:
    """Aggregated recovery metrics of the incident-scenario study.

    ``stats`` maps ``(scenario, algorithm, metric)`` — with ``metric`` one of
    :data:`RECOVERY_METRICS` — to its cross-run aggregate.  ``recovered`` is
    aggregated as a 0/1 indicator, so its mean is the recovery rate.
    """

    label: str
    scenarios: List[str]
    algorithms: List[str]
    num_epochs: int
    num_runs: int
    churn: ChurnSpec
    patience_epochs: Optional[int]
    stats: Dict[tuple, AggregateStat]

    def rows(self) -> List[list]:
        """One row per (scenario, algorithm) with the mean of each metric."""
        rows = []
        for scenario in self.scenarios:
            for name in self.algorithms:
                row: list = [scenario, name]
                row.extend(self.stats[(scenario, name, m)].mean for m in RECOVERY_METRICS)
                rows.append(row)
        return rows


def _execute_scenario_run(task) -> GroupedRunningStats:
    """One scenario replication (worker-side entry point; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    (
        config,
        scenario_name,
        algorithms,
        churn,
        num_epochs,
        patience_epochs,
        rng,
    ) = task
    scenario_rng, sim_rng = spawn_generators(rng, 2)
    world = build_scenario(config, seed=scenario_rng)
    simulator = ChurnSimulator(
        scenario=world,
        algorithms=list(algorithms),
        churn_spec=churn,
        seed=sim_rng,
        scenario_timeline=scenario_name,
        admission_policy=AdmissionPolicy(patience_epochs=patience_epochs),
    )
    records = list(simulator.stream(num_epochs))
    stats = GroupedRunningStats()
    for name in algorithms:
        report = recovery_report(records, algorithm=name)
        stats.add((scenario_name, name, "time_to_recover"), float(report.time_to_recover))
        stats.add((scenario_name, name, "dip_depth"), report.dip_depth)
        stats.add((scenario_name, name, "dip_area"), report.dip_area)
        stats.add(
            (scenario_name, name, "degraded_client_epochs"),
            float(report.degraded_client_epochs),
        )
        stats.add(
            (scenario_name, name, "max_clients_degraded"),
            float(report.max_clients_degraded),
        )
        stats.add((scenario_name, name, "recovered"), 1.0 if report.recovered else 0.0)
    return stats


def run_scenarios(
    label: str = PAPER_DEFAULT_LABEL,
    scenarios: Optional[Sequence[str]] = None,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 16,
    churn: ChurnSpec | None = None,
    patience_epochs: Optional[int] = 6,
    correlation: float = 0.0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> ScenariosResult:
    """Run the incident-scenario recovery experiment.

    Each (scenario, run) pair is an independent replication — fresh topology,
    placements and churn stream — simulated for ``num_epochs`` epochs with the
    named disturbance timeline active and admission control shedding excess
    clients to the degraded pool (``patience_epochs`` bounds how long a shed
    client waits before abandoning; ``None`` waits forever).  Recovery metrics
    are computed per replication and aggregated across runs.
    """
    scenarios = list(scenarios or sorted(SCENARIO_LIBRARY))
    for name in scenarios:
        if name not in SCENARIO_LIBRARY:
            raise ValueError(
                f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIO_LIBRARY))}"
            )
    algorithms = list(algorithms or ("grez-grec",))
    churn = churn or ChurnSpec()
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    rng = as_generator(seed)
    # One independent sub-stream per (scenario, run); scenario order is fixed
    # above, so the streams are stable for a fixed seed.
    run_rngs = spawn_generators(rng, len(scenarios) * num_runs)

    tasks = [
        (
            config,
            scenario_name,
            tuple(algorithms),
            churn,
            num_epochs,
            patience_epochs,
            run_rngs[i * num_runs + r],
        )
        for i, scenario_name in enumerate(scenarios)
        for r in range(num_runs)
    ]
    merged = GroupedRunningStats()
    for run_stats in ordered_map(_execute_scenario_run, tasks, workers=workers):
        merged.merge(run_stats)

    stats = {
        (scenario, name, metric): merged.stat((scenario, name, metric))
        for scenario in scenarios
        for name in algorithms
        for metric in RECOVERY_METRICS
    }
    return ScenariosResult(
        label=label,
        scenarios=scenarios,
        algorithms=algorithms,
        num_epochs=num_epochs,
        num_runs=num_runs,
        churn=churn,
        patience_epochs=patience_epochs,
        stats=stats,
    )


def format_scenarios(result: ScenariosResult) -> str:
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
        f"{result.num_epochs} epochs, patience={result.patience_epochs}, "
        f"{result.num_runs} runs"
    )
    return format_table(headers, result.rows(), title=title, float_format=".3f")
