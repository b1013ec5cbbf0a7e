"""Experiment (extension) — cross-shard capacity arbitration in federated worlds.

Several independent DVE shards share one topology and one server fleet
(:mod:`repro.world.federation`); this driver compares capacity arbiters
(:mod:`repro.core.arbitration`) on a *skewed* federation — shard client
populations descend (the first shard is the largest), so a static equal split
starves the big shard while demand-aware arbiters move capacity toward it.

Every arbiter replays the same federation and the same churn streams (shared
integer seed per run), so differences come from the arbitration policy alone.
Scores per arbiter:

* **aggregate pQoS** — client-weighted over all shards (the operator's SLA);
* **worst-shard pQoS** — the fairness floor a per-world SLA cares about;
* **pQoS spread** — max minus min shard mean (inter-world fairness);
* **migration bill** — clients migrated and cost per epoch, plus the maximum
  single-epoch bill (to check the per-epoch migration budget held).

Replications are independent federations (fresh topology, placements and
churn), parallelised over the shared ``workers`` knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.arbitration import ARBITER_NAMES, CapacityArbiter, make_arbiter
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.federation_engine import AGGREGATE_SHARD_ID, FederatedSimulator
from repro.dynamics.migration import MigrationCostModel
from repro.experiments.config import PAPER_DEFAULT_LABEL, apply_delay_backend, config_from_label
from repro.io.tables import format_table
from repro.metrics.summary import AggregateStat, GroupedRunningStats
from repro.utils.pool import ordered_map
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.federation import build_federation, split_client_counts

__all__ = ["FederationResult", "run_federation", "format_federation"]

#: Per-arbiter metrics aggregated across runs.
_METRICS = (
    "mean_pqos",
    "worst_shard_pqos",
    "pqos_spread",
    "clients_migrated",
    "migration_cost",
    "max_epoch_migration_cost",
)

#: Default per-epoch churn, as a fraction of each shard's client count.
_DEFAULT_CHURN_FRACTION = 0.1


@dataclass(frozen=True)
class FederationResult:
    """Aggregated arbiter comparison on a federated world.

    ``stats`` maps ``(arbiter_name, metric)`` to the cross-run aggregate for
    the metrics in :data:`_METRICS`.
    """

    label: str
    algorithm: str
    num_shards: int
    arbiter_names: List[str]
    num_epochs: int
    num_runs: int
    client_weights: Tuple[float, ...]
    migration_budget: Optional[float]
    stats: Dict[Tuple[str, str], AggregateStat]

    def rows(self) -> List[list]:
        """One row per arbiter with every aggregated metric's mean."""
        return [
            [name, *(self.stats[(name, metric)].mean for metric in _METRICS)]
            for name in self.arbiter_names
        ]


def _shard_churn_specs(config, num_shards, client_weights) -> List[ChurnSpec]:
    """Per-shard churn at the default fraction of each shard's population."""
    counts = split_client_counts(config.num_clients, num_shards, weights=client_weights)
    return [
        ChurnSpec(
            num_joins=max(1, round(_DEFAULT_CHURN_FRACTION * c)),
            num_leaves=max(1, round(_DEFAULT_CHURN_FRACTION * c)),
            num_moves=max(1, round(_DEFAULT_CHURN_FRACTION * c)),
        )
        for c in counts
    ]


def _execute_federation_run(task) -> GroupedRunningStats:
    """One replication across all arbiters (worker-side; must be picklable)."""
    import repro.baselines  # noqa: F401 — repopulate the registry under spawn

    (
        config,
        algorithm,
        arbiters,
        num_shards,
        client_weights,
        churn_specs,
        migration_cost,
        migration_budget,
        num_epochs,
        policy,
        rng,
    ) = task
    fed_rng, sim_rng = spawn_generators(rng, 2)
    world = build_federation(
        config, num_shards=num_shards, seed=fed_rng, client_weights=list(client_weights)
    )
    # Every arbiter replays the same world and churn streams — a shared
    # *integer* seed (not a shared Generator) re-seeds identically per arbiter.
    sim_seed = int(sim_rng.integers(2**63))
    stats = GroupedRunningStats()
    for name, arbiter in arbiters:
        simulator = FederatedSimulator(
            world=world,
            algorithms=[algorithm],
            arbiter=arbiter,
            churn_spec=list(churn_specs),
            migration_cost=migration_cost,
            seed=sim_seed,
            policy=policy,
            policy_migration_budget=migration_budget,
        )
        records = simulator.run(num_epochs)
        aggregate = [r for r in records if r.shard_id == AGGREGATE_SHARD_ID]
        shard_means: Dict[int, List[float]] = {}
        for r in records:
            if r.shard_id != AGGREGATE_SHARD_ID and not math.isnan(r.pqos_adopted):
                shard_means.setdefault(r.shard_id, []).append(r.pqos_adopted)
        means = [sum(v) / len(v) for v in shard_means.values()]
        stats.add((name, "mean_pqos"), sum(r.pqos_adopted for r in aggregate) / len(aggregate))
        stats.add((name, "worst_shard_pqos"), min(means))
        stats.add((name, "pqos_spread"), max(means) - min(means))
        stats.add(
            (name, "clients_migrated"),
            sum(r.clients_migrated for r in aggregate) / len(aggregate),
        )
        stats.add(
            (name, "migration_cost"),
            sum(r.migration_cost for r in aggregate) / len(aggregate),
        )
        stats.add(
            (name, "max_epoch_migration_cost"),
            max(r.migration_cost for r in aggregate),
        )
    return stats


def run_federation(
    label: str = PAPER_DEFAULT_LABEL,
    num_shards: int = 3,
    arbiters: Optional[Sequence[Union[str, CapacityArbiter]]] = None,
    algorithm: str = "grez-grec",
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 5,
    churn: Optional[ChurnSpec] = None,
    migration_cost: Optional[MigrationCostModel] = None,
    migration_budget: Optional[float] = None,
    client_weights: Optional[Sequence[float]] = None,
    correlation: float = 0.0,
    policy: str = "reexecute",
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> FederationResult:
    """Run the federated-arbitration experiment.

    The label's client population is split across ``num_shards`` shards with
    descending weights (``N, N-1, …, 1`` by default), per-shard churn runs at
    10 % of each shard's population, migrations cost one unit per client, and
    every scheduled re-execution is capped by a per-shard migration budget of
    25 % of the shard-average population (so arbiters are compared under the
    same disruption ceiling).  Pass ``churn`` to force one spec for every
    shard, ``migration_budget=math.inf`` for the unbudgeted setting.

    ``workers`` parallelises *replications* over processes; the shards of
    each federated epoch always step serially.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    config = apply_delay_backend(config_from_label(label, correlation=correlation), delay_backend)
    if client_weights is None:
        client_weights = tuple(float(num_shards - i) for i in range(num_shards))
    client_weights = tuple(float(w) for w in client_weights)
    if churn is None:
        churn_specs = _shard_churn_specs(config, num_shards, client_weights)
    else:
        churn_specs = [churn] * num_shards
    if migration_cost is None:
        migration_cost = MigrationCostModel(cost_per_client=1.0)
    if migration_budget is None:
        migration_budget = (
            0.25 * config.num_clients / num_shards * migration_cost.cost_per_client
            if migration_cost.cost_per_client > 0
            else math.inf
        )
    resolved: List[Tuple[str, CapacityArbiter]] = []
    for entry in arbiters if arbiters is not None else ARBITER_NAMES:
        instance = make_arbiter(entry)
        resolved.append((instance.name, instance))

    rng = as_generator(seed)
    run_rngs = spawn_generators(rng, num_runs)
    tasks = [
        (
            config,
            algorithm,
            tuple(resolved),
            num_shards,
            client_weights,
            tuple(churn_specs),
            migration_cost,
            migration_budget,
            num_epochs,
            policy,
            run_rngs[i],
        )
        for i in range(num_runs)
    ]
    merged = GroupedRunningStats()
    for run_stats in ordered_map(_execute_federation_run, tasks, workers=workers):
        merged.merge(run_stats)

    names = [name for name, _ in resolved]
    stats = {
        (name, metric): merged.stat((name, metric)) for name in names for metric in _METRICS
    }
    return FederationResult(
        label=label,
        algorithm=algorithm,
        num_shards=num_shards,
        arbiter_names=names,
        num_epochs=num_epochs,
        num_runs=num_runs,
        client_weights=client_weights,
        migration_budget=None if math.isinf(migration_budget) else migration_budget,
        stats=stats,
    )


def format_federation(result: FederationResult) -> str:
    """Render the arbiter comparison table."""
    budget = "unlimited" if result.migration_budget is None else f"{result.migration_budget:g}"
    weights = ", ".join(f"{w:g}" for w in result.client_weights)
    title = (
        f"Federated arbitration on {result.algorithm}, {result.label} split over "
        f"{result.num_shards} shards (weights {weights}), "
        f"{result.num_epochs} epochs × {result.num_runs} runs, "
        f"per-shard migration budget {budget}"
    )
    headers = [
        "arbiter",
        "aggregate pQoS",
        "worst-shard pQoS",
        "pQoS spread",
        "clients migrated / epoch",
        "migration cost / epoch",
        "max epoch cost",
    ]
    return format_table(headers, result.rows(), title=title, float_format=".3f")
