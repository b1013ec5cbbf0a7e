"""Experiment (extension) — cross-shard capacity arbitration in federated worlds.

Several independent DVE shards share one topology and one server fleet
(:mod:`repro.world.federation`); this study compares capacity arbiters
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
churn), parallelised under ``ExperimentConfig.workers``.

It also holds ``repro-dve federate``'s per-run simulator and its table
renderers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.core.arbitration import ARBITER_NAMES, CapacityArbiter, make_arbiter
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import EpochRecord
from repro.dynamics.federation_engine import (
    AGGREGATE_SHARD_ID,
    FederatedSimulator,
    FederationProfile,
)
from repro.dynamics.migration import MigrationCostModel
from repro.experiments.config import ExperimentConfig, ExperimentSpec, engine_study_config
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.world.federation import build_federation, split_client_counts
from repro.world.scenario import DVEConfig

__all__ = [
    "FEDERATION",
    "format_federation",
    "build_federated_simulator",
    "format_federate",
    "format_federate_profile",
]

#: Per-arbiter metrics aggregated across runs.
_METRICS = (
    "mean_pqos",
    "worst_shard_pqos",
    "pqos_spread",
    "clients_migrated",
    "migration_cost",
    "max_epoch_migration_cost",
)

#: The algorithm every shard runs.
ALGORITHM = "grez-grec"

#: Per-epoch churn, as a fraction of each shard's client count.
_CHURN_FRACTION = 0.1

#: Every zone move costs one unit per client.
_MIGRATION_COST = MigrationCostModel(cost_per_client=1.0)


def _shard_means(records: Sequence[EpochRecord]) -> List[float]:
    """Mean adopted pQoS of every shard over the epochs that measured it."""
    by_shard: Dict[int, List[float]] = {}
    for r in records:
        if r.shard_id != AGGREGATE_SHARD_ID and not math.isnan(r.pqos_adopted):
            by_shard.setdefault(r.shard_id, []).append(r.pqos_adopted)
    return [sum(v) / len(v) for v in by_shard.values()]


def build_federated_simulator(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    engine: dict,
    client_weights: tuple,
    churn_fraction: float,
    arbiter: CapacityArbiter,
) -> FederatedSimulator:
    """One replication's federated simulator: a fresh federation and churn streams.

    Each shard's per-epoch joins, leaves and moves are ``churn_fraction``
    of its clients; ``engine`` holds the remaining
    :class:`FederatedSimulator` keywords.
    """
    world = build_federation(
        config, num_shards=len(client_weights), seed=world_rng, client_weights=list(client_weights)
    )
    events = [round(churn_fraction * shard.num_clients) for shard in world.shards]
    churn_specs = [ChurnSpec(num_joins=n, num_leaves=n, num_moves=n) for n in events]
    return FederatedSimulator(
        world=world, arbiter=arbiter, churn_spec=churn_specs, seed=engine_rng, **engine
    )


def _federation_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    arbiters: tuple,
    client_weights: tuple,
    churn_specs: tuple,
    migration_budget: float,
    num_epochs: int,
) -> Dict[tuple, float]:
    """One replication across all arbiters: every metric of every arbiter."""
    world = build_federation(
        config,
        num_shards=len(client_weights),
        seed=world_rng,
        client_weights=list(client_weights),
    )
    # Every arbiter replays the same world and churn streams — a shared
    # *integer* seed (not a shared Generator) re-seeds identically per arbiter.
    sim_seed = int(engine_rng.integers(2**63))
    observations = {}
    for arbiter in arbiters:
        records = FederatedSimulator(
            world=world,
            algorithms=[ALGORITHM],
            arbiter=arbiter,
            churn_spec=list(churn_specs),
            migration_cost=_MIGRATION_COST,
            seed=sim_seed,
            policy_migration_budget=migration_budget,
        ).run(num_epochs)
        aggregate = [r for r in records if r.shard_id == AGGREGATE_SHARD_ID]
        means = _shard_means(records)
        values = (
            sum(r.pqos_adopted for r in aggregate) / len(aggregate),
            min(means),
            max(means) - min(means),
            sum(r.clients_migrated for r in aggregate) / len(aggregate),
            sum(r.migration_cost for r in aggregate) / len(aggregate),
            max(r.migration_cost for r in aggregate),
        )
        observations.update({(arbiter.name, m): v for m, v in zip(_METRICS, values)})
    return observations


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> StudyResult:
    """Replicate the arbiter comparison; one row per arbiter of ``spec.sweep``.

    The label's client population is split across ``spec.num_shards`` shards
    with descending weights ``N, N-1, …, 1``, per-shard churn runs at 10 % of
    each shard's population, migrations cost one unit per client, and every
    scheduled re-execution is capped by a per-shard migration budget of 25 %
    of the shard-average population (so arbiters are compared under the same
    disruption ceiling).  ``config.workers`` parallelises *replications*
    over processes; the shards of each federated epoch always step serially.
    """
    num_shards = spec.num_shards
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    (world,) = worlds
    world = engine_study_config(world)
    client_weights = tuple(float(num_shards - i) for i in range(num_shards))
    counts = split_client_counts(world.num_clients, num_shards, weights=client_weights)
    events = [max(1, round(_CHURN_FRACTION * count)) for count in counts]
    churn_specs = tuple(ChurnSpec(num_joins=n, num_leaves=n, num_moves=n) for n in events)
    migration_budget = 0.25 * world.num_clients / num_shards
    resolved = [make_arbiter(entry) for entry in spec.sweep]
    point = dict(
        config=world,
        arbiters=tuple(resolved),
        client_weights=client_weights,
        churn_specs=churn_specs,
        migration_budget=migration_budget,
        num_epochs=spec.num_epochs,
    )
    runs = replicate(_federation_run, [point], config.num_runs, config.seed, config.workers)
    return StudyResult.collect(
        runs,
        spec.labels[0],
        config.num_runs,
        [arbiter.name for arbiter in resolved],
        _METRICS,
        num_epochs=spec.num_epochs,
        client_weights=client_weights,
        migration_budget=migration_budget,
    )


def format_federation(result: StudyResult) -> str:
    """Render the arbiter comparison table."""
    setting = result.setting
    weights = setting["client_weights"]
    title = (
        f"Federated arbitration on {ALGORITHM}, {result.label} split over "
        f"{len(weights)} shards (weights {', '.join(f'{w:g}' for w in weights)}), "
        f"{setting['num_epochs']} epochs × {result.num_runs} runs, "
        f"per-shard migration budget {setting['migration_budget']:g}"
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
    return format_table(headers, result.table(), title=title, float_format=".3f")


def format_federate(result: StudyResult) -> str:
    """Render the ``federate`` summary: one row per (algorithm, shard), aggregate last.

    ``result`` has one ``(algorithm, shard_id)`` row per shard and algorithm
    and the :data:`~repro.experiments.dynamics.SUMMARY_COLUMNS`; the title
    names each algorithm's worst shard by mean adopted pQoS.
    """
    rows = []
    worst = {}
    for name, shard, *values in result.table():
        if shard != AGGREGATE_SHARD_ID:
            worst[name] = min(worst.get(name, 1.0), result.mean((name, shard), "adopted"))
        label = "aggregate" if shard == AGGREGATE_SHARD_ID else f"shard {shard}"
        rows.append([name, label, *values])
    headers = [
        "algorithm",
        "shard",
        "clients",
        "stale pQoS",
        "adopted pQoS",
        "final pQoS",
        "migrated / epoch",
        "migration cost / epoch",
    ]
    title = (
        f"Summary over {result.setting['num_epochs']} epochs × {result.num_runs} run(s); "
        "worst shard " + ", ".join(f"{name}: {value:.3f}" for name, value in worst.items())
    )
    return format_table(headers, rows, title=title, float_format=".3f")


def format_federate_profile(profile: FederationProfile) -> str:
    """Render ``federate --profile``: each shard's epoch wall, solve and measure time."""
    epochs = max(1, profile.num_epochs)
    columns = (
        profile.shard_wall_seconds, profile.shard_solve_seconds, profile.shard_measure_seconds
    )
    rows = [
        [f"shard {shard_id}", wall, wall / epochs, solve, measure]
        for shard_id, (wall, solve, measure) in enumerate(zip(*columns))
    ]
    wall, solve, measure = (sum(column) for column in columns)
    rows.append(["all shards", wall, wall / epochs, solve, measure])
    return format_table(
        ["shard", "epoch wall (s)", "wall / epoch", "solve (s)", "measure (s)"],
        rows,
        title=(
            f"Shard runtime over {profile.num_epochs} epoch(s); "
            f"arbiter decisions {profile.arbiter_seconds:.4f}s total"
        ),
        float_format=".4f",
    )


#: The federation study: every arbiter on the default configuration split
#: over three shards, for five epochs.
FEDERATION = ExperimentSpec(
    experiment_id="federation",
    paper_artifact="(extension)",
    description="Cross-shard capacity arbiters on a federated multi-shard world",
    execute=_execute,
    format=format_federation,
    sweep=ARBITER_NAMES,
    num_epochs=5,
    num_shards=3,
)
