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
from typing import Dict, Optional

import numpy as np

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import RebalancePolicy
from repro.experiments.config import PAPER_DEFAULT_LABEL, engine_study_config
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEConfig, build_scenario

__all__ = [
    "default_controller_policies",
    "run_controller",
    "format_controller",
]

#: The solver every controller run re-executes and repairs with.
ALGORITHM = "grez-grec"
#: Infrastructure churn of every controller run: one server joining and one
#: leaving per epoch, with 5 % capacity drift.
SERVER_CHURN = ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05)
#: Migration cost of every controller run: one unit per migrated client.
MIGRATION_COST = MigrationCostModel(cost_per_client=1.0)


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


def _controller_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    policies: tuple,
    churn: ChurnSpec,
    num_epochs: int,
) -> Dict[tuple, float]:
    """One replication across all policies: every metric of every policy."""
    scenario = build_scenario(config, seed=world_rng)
    # Every policy replays the same scenario and the same churn stream, so
    # differences come from the trigger policy alone.  A shared *integer*
    # seed (not a shared Generator — spawning from a Generator mutates it,
    # which would hand each policy a different stream) re-seeds identically
    # per policy.
    sim_seed = int(engine_rng.integers(2**63))
    observations = {}
    for name, policy in policies:
        records = ChurnSimulator(
            scenario=scenario,
            algorithms=[ALGORITHM],
            churn_spec=churn,
            server_churn_spec=SERVER_CHURN,
            migration_cost=MIGRATION_COST,
            seed=sim_seed,
            policy=policy,
        ).run(num_epochs)
        adopted = [r.pqos_adopted for r in records]
        actions = [r.action for r in records]
        values = (
            sum(adopted) / len(adopted),
            min(adopted),
            float(actions.count("repair")),
            float(actions.count("rebalance")),
            float(sum(r.clients_migrated for r in records)),
            sum(r.migration_cost for r in records),
        )
        observations.update({(name, m): v for m, v in zip(_METRICS, values)})
    return observations


def run_controller(
    label: str = PAPER_DEFAULT_LABEL,
    policies: Optional[Dict[str, RebalancePolicy]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 6,
    churn: ChurnSpec | None = None,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> StudyResult:
    """Run the controller-policy comparison experiment with :data:`ALGORITHM`.

    By default the churn is the paper's Table 3 batch.  On top of it come
    :data:`SERVER_CHURN` (mild infrastructure churn) and
    :data:`MIGRATION_COST` (a unit-cost migration model), so the budgeted
    policy of :func:`default_controller_policies` has something to trade
    against.  The result has one row per policy and one column per metric.
    """
    churn = churn or ChurnSpec()
    config = engine_study_config(label, delay_backend)
    if policies is None:
        # Budget the default ladder's capped policy at 25 % of the configured
        # population migrating per epoch.
        budget = 0.25 * config.num_clients * MIGRATION_COST.cost_per_client
        policies = default_controller_policies(budget)

    point = dict(
        config=config, policies=tuple(policies.items()), churn=churn, num_epochs=num_epochs
    )
    runs = replicate(_controller_run, [point], num_runs, seed, workers)
    return StudyResult.collect(
        runs,
        label,
        num_runs,
        list(policies),
        _METRICS,
        algorithm=ALGORITHM,
        num_epochs=num_epochs,
        churn=churn,
        server_churn=SERVER_CHURN,
        migration_cost=MIGRATION_COST,
    )


def format_controller(result: StudyResult) -> str:
    """Render the policy comparison table."""
    setting = result.setting
    churn = setting["churn"]
    sc = setting["server_churn"]
    elastic = (
        f", fleet {sc.num_joins}+/{sc.num_leaves}- drift {sc.capacity_drift:g}"
        if not sc.is_static
        else ""
    )
    title = (
        f"Rebalance controller on {setting['algorithm']}, {result.label}, "
        f"{setting['num_epochs']} epochs × {result.num_runs} runs, churn "
        f"{churn.num_joins}j/{churn.num_leaves}l/{churn.num_moves}m{elastic}, "
        f"migration cost {setting['migration_cost'].cost_per_client:g}/client"
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
    return format_table(headers, result.table(), title=title, float_format=".3f")
