"""Experiment (extension) — longitudinal DVE dynamics under sustained churn.

The paper's Table 3 measures a *single* churn batch; this driver runs many
churn epochs and tracks how each algorithm's interactivity evolves when the
operator applies a repair policy every epoch (full re-execution, incremental
contact repair, warm-started local search, or scheduled re-executions every
k epochs).  Replications are independent simulation runs — fresh topology,
placements and churn streams — so the driver inherits the parallel
replication engine via the shared ``workers`` knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import make_policy
from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.io.tables import format_table
from repro.metrics.summary import AggregateStat, GroupedRunningStats
from repro.utils.pool import ordered_map
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.scenario import build_scenario

__all__ = ["DynamicsResult", "run_dynamics", "format_dynamics"]


@dataclass(frozen=True)
class DynamicsResult:
    """Aggregated pQoS trajectories of a longitudinal churn study.

    ``after`` / ``adopted`` map ``(algorithm, epoch)`` to the cross-run
    aggregate of the stale (carried-over) and post-repair pQoS.
    """

    label: str
    algorithms: List[str]
    policy: str
    num_epochs: int
    num_runs: int
    churn: ChurnSpec
    after: Dict[tuple, AggregateStat]
    adopted: Dict[tuple, AggregateStat]

    def trajectory(self, algorithm: str) -> List[float]:
        """Mean adopted pQoS per epoch for one algorithm."""
        return [self.adopted[(algorithm, e)].mean for e in range(self.num_epochs)]

    def rows(self) -> List[list]:
        """One row per epoch: stale and adopted pQoS per algorithm."""
        rows = []
        for epoch in range(self.num_epochs):
            row: list = [epoch]
            for name in self.algorithms:
                row.append(self.after[(name, epoch)].mean)
                row.append(self.adopted[(name, epoch)].mean)
            rows.append(row)
        return rows


def _execute_dynamics_run(task) -> GroupedRunningStats:
    """One longitudinal run (worker-side entry point; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    (
        config,
        algorithms,
        churn,
        server_churn,
        migration_cost,
        num_epochs,
        policy,
        policy_period,
        rng,
    ) = task
    scenario_rng, sim_rng = spawn_generators(rng, 2)
    scenario = build_scenario(config, seed=scenario_rng)
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=list(algorithms),
        churn_spec=churn,
        server_churn_spec=server_churn,
        migration_cost=migration_cost,
        seed=sim_rng,
        policy=policy,
        policy_period=policy_period,
    )
    # Stream records into per-(algorithm, epoch) accumulators so the worker
    # ships back O(algorithms × epochs) statistics, not O(epochs) records.
    stats = GroupedRunningStats()
    for record in simulator.stream(num_epochs):
        stats.add(("after", record.algorithm, record.epoch), record.pqos_after)
        stats.add(("adopted", record.algorithm, record.epoch), record.pqos_adopted)
    return stats


def run_dynamics(
    label: str = PAPER_DEFAULT_LABEL,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 5,
    policy: str = "reexecute",
    policy_period: int = 0,
    churn: ChurnSpec | None = None,
    server_churn: Optional[ServerChurnSpec] = None,
    migration_cost: Optional[MigrationCostModel] = None,
    correlation: float = 0.0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> DynamicsResult:
    """Run the longitudinal dynamics experiment.

    Every run builds a fresh scenario (new topology / placements), simulates
    ``num_epochs`` churn epochs under the given repair policy, and the
    per-epoch pQoS values are aggregated across runs.  Runs are independent,
    so ``workers`` distributes them over a process pool exactly as in
    :func:`~repro.experiments.runner.run_replications`.  ``server_churn``
    adds infrastructure churn per epoch and ``migration_cost`` prices zone
    moves (both default to the paper's fixed-fleet, free-migration setting).
    """
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    churn = churn or ChurnSpec()
    migration_cost = migration_cost or MigrationCostModel()
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    rng = as_generator(seed)
    run_rngs = spawn_generators(rng, num_runs)

    tasks = [
        (
            config,
            tuple(algorithms),
            churn,
            server_churn,
            migration_cost,
            num_epochs,
            policy,
            policy_period,
            run_rngs[i],
        )
        for i in range(num_runs)
    ]
    merged = GroupedRunningStats()
    for run_stats in ordered_map(_execute_dynamics_run, tasks, workers=workers):
        merged.merge(run_stats)

    # Resolve the schedule name once so the result reports e.g. "every_5_epochs".
    schedule = make_policy(policy, period=policy_period or None)
    after = {
        (name, epoch): merged.stat(("after", name, epoch))
        for name in algorithms
        for epoch in range(num_epochs)
    }
    adopted = {
        (name, epoch): merged.stat(("adopted", name, epoch))
        for name in algorithms
        for epoch in range(num_epochs)
    }
    return DynamicsResult(
        label=label,
        algorithms=algorithms,
        policy=schedule.name,
        num_epochs=num_epochs,
        num_runs=num_runs,
        churn=churn,
        after=after,
        adopted=adopted,
    )


def format_dynamics(result: DynamicsResult, max_rows: int = 12) -> str:
    """Render the trajectory table (subsampled for very long runs)."""
    headers = ["epoch"]
    for name in result.algorithms:
        headers.append(f"{name} stale")
        headers.append(f"{name} adopted")
    rows = result.rows()
    if len(rows) > max_rows:
        step = max(1, len(rows) // max_rows)
        sampled = rows[::step]
        if sampled[-1][0] != rows[-1][0]:
            sampled.append(rows[-1])
        rows = sampled
    churn = result.churn
    title = (
        f"Longitudinal dynamics: pQoS per epoch, {result.label}, "
        f"policy={result.policy}, churn "
        f"{churn.num_joins}j/{churn.num_leaves}l/{churn.num_moves}m, "
        f"{result.num_runs} runs"
    )
    return format_table(headers, rows, title=title, float_format=".3f")
