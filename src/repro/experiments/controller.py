"""Experiment (extension) — rebalance-controller policies under elastic churn.

The paper leaves the re-execution trigger to the operator (Section 3.4); this
driver compares concrete :class:`~repro.dynamics.policies.RebalancePolicy`
triggers, each run as the churn engine's policy, over a sustained churn
workload with optional infrastructure churn, and prices every decision with a
:class:`~repro.dynamics.migration.MigrationCostModel` — so each policy is
scored on interactivity (mean / worst pQoS), operational effort (repairs and
full rebalances) *and* disruption (clients migrated, migration bill).

Replications are independent simulation runs (fresh topology, placements and
churn streams), so the driver inherits the parallel replication engine via
the shared ``workers`` knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import RebalancePolicy
from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.io.tables import format_table
from repro.metrics.summary import AggregateStat, GroupedRunningStats
from repro.utils.pool import ordered_map
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.scenario import build_scenario

__all__ = [
    "default_controller_policies",
    "ControllerResult",
    "run_controller",
    "format_controller",
]

def default_controller_policies(migration_budget: float = math.inf) -> Dict[str, RebalancePolicy]:
    """The policy ladder the experiment compares by default.

    From "never touch it" to "always re-execute", plus a migration-budgeted
    variant of the eager policy that demotes re-executions whose zone moves
    would bill above ``migration_budget``.
    """
    return {
        "lazy (target 0.80)": RebalancePolicy(target_pqos=0.80, repair_slack=0.05),
        "balanced (target 0.90)": RebalancePolicy(target_pqos=0.90, repair_slack=0.05),
        "eager (target 0.99)": RebalancePolicy(target_pqos=0.99, repair_slack=0.0),
        "budgeted eager": RebalancePolicy(
            target_pqos=0.99, repair_slack=0.0,
            max_migration_cost_per_epoch=migration_budget,
        ),
    }


#: Per-metric keys aggregated across runs for every policy.
_METRICS = (
    "mean_pqos",
    "worst_pqos",
    "repairs",
    "rebalances",
    "clients_migrated",
    "migration_cost",
)


@dataclass(frozen=True)
class ControllerResult:
    """Aggregated controller-policy comparison.

    ``stats`` maps ``(policy_name, metric)`` to the cross-run aggregate for
    the metrics in :data:`_METRICS`.
    """

    label: str
    algorithm: str
    policy_names: List[str]
    num_epochs: int
    num_runs: int
    churn: ChurnSpec
    server_churn: Optional[ServerChurnSpec]
    migration_cost: MigrationCostModel
    stats: Dict[Tuple[str, str], AggregateStat]

    def rows(self) -> List[list]:
        """One row per policy with every aggregated metric's mean."""
        return [
            [name, *(self.stats[(name, metric)].mean for metric in _METRICS)]
            for name in self.policy_names
        ]


def _execute_controller_run(task) -> GroupedRunningStats:
    """One replication across all policies (worker-side; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    (
        config,
        algorithm,
        policies,
        churn,
        server_churn,
        migration_cost,
        num_epochs,
        rng,
    ) = task
    scenario_rng, sim_rng = spawn_generators(rng, 2)
    scenario = build_scenario(config, seed=scenario_rng)
    # Every policy replays the same scenario and the same churn stream, so
    # differences come from the trigger policy alone.  A shared *integer*
    # seed (not a shared Generator — spawning from a Generator mutates it,
    # which would hand each policy a different stream) re-seeds identically
    # per policy.
    sim_seed = int(sim_rng.integers(2**63))
    stats = GroupedRunningStats()
    for name, policy in policies:
        records = ChurnSimulator(
            scenario=scenario,
            algorithms=[algorithm],
            churn_spec=churn,
            server_churn_spec=server_churn,
            migration_cost=migration_cost,
            seed=sim_seed,
            policy=policy,
        ).run(num_epochs)
        adopted = [r.pqos_adopted for r in records]
        actions = [r.action for r in records]
        stats.add((name, "mean_pqos"), sum(adopted) / len(adopted))
        stats.add((name, "worst_pqos"), min(adopted))
        stats.add((name, "repairs"), float(actions.count("repair")))
        stats.add((name, "rebalances"), float(actions.count("rebalance")))
        stats.add((name, "clients_migrated"), float(sum(r.clients_migrated for r in records)))
        stats.add((name, "migration_cost"), sum(r.migration_cost for r in records))
    return stats


def run_controller(
    label: str = PAPER_DEFAULT_LABEL,
    algorithm: str = "grez-grec",
    policies: Optional[Dict[str, RebalancePolicy]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 6,
    churn: ChurnSpec | None = None,
    server_churn: Optional[ServerChurnSpec] = None,
    migration_cost: Optional[MigrationCostModel] = None,
    correlation: float = 0.0,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> ControllerResult:
    """Run the controller-policy comparison experiment.

    By default the churn is the paper's Table 3 batch plus mild
    infrastructure churn (one server joining and one leaving per epoch with
    5 % capacity drift) and a unit-cost migration model, so the budgeted
    policy of :func:`default_controller_policies` has something to trade
    against; pass ``server_churn=ServerChurnSpec()`` /
    ``migration_cost=MigrationCostModel()`` explicitly for the classic
    fixed-fleet, free-migration setting.
    """
    churn = churn or ChurnSpec()
    if server_churn is None:
        server_churn = ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05)
    if migration_cost is None:
        migration_cost = MigrationCostModel(cost_per_client=1.0)
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    if policies is None:
        # Budget the default ladder's capped policy at 25 % of the configured
        # population migrating per epoch (infinite when migrations are free).
        budget = (
            0.25 * config.num_clients * migration_cost.cost_per_client
            if migration_cost.cost_per_client > 0
            else math.inf
        )
        policies = default_controller_policies(budget)
    resolved: List[Tuple[str, RebalancePolicy]] = list(policies.items())

    rng = as_generator(seed)
    run_rngs = spawn_generators(rng, num_runs)
    tasks = [
        (
            config,
            algorithm,
            tuple(resolved),
            churn,
            server_churn,
            migration_cost,
            num_epochs,
            run_rngs[i],
        )
        for i in range(num_runs)
    ]
    merged = GroupedRunningStats()
    for run_stats in ordered_map(_execute_controller_run, tasks, workers=workers):
        merged.merge(run_stats)

    names = [name for name, _ in resolved]
    stats = {
        (name, metric): merged.stat((name, metric)) for name in names for metric in _METRICS
    }
    return ControllerResult(
        label=label,
        algorithm=algorithm,
        policy_names=names,
        num_epochs=num_epochs,
        num_runs=num_runs,
        churn=churn,
        server_churn=server_churn,
        migration_cost=migration_cost,
        stats=stats,
    )


def format_controller(result: ControllerResult) -> str:
    """Render the policy comparison table."""
    churn = result.churn
    sc = result.server_churn
    elastic = (
        f", fleet {sc.num_joins}+/{sc.num_leaves}- drift {sc.capacity_drift:g}"
        if sc is not None and not sc.is_static
        else ""
    )
    title = (
        f"Rebalance controller on {result.algorithm}, {result.label}, "
        f"{result.num_epochs} epochs × {result.num_runs} runs, churn "
        f"{churn.num_joins}j/{churn.num_leaves}l/{churn.num_moves}m{elastic}, "
        f"migration cost {result.migration_cost.cost_per_client:g}/client"
    )
    headers = [
        "policy",
        "mean pQoS",
        "worst pQoS",
        "repairs",
        "rebalances",
        "clients migrated",
        "migration cost",
    ]
    return format_table(headers, result.rows(), title=title, float_format=".3f")
