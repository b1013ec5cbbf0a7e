"""Experiment (extension) — longitudinal DVE dynamics under sustained churn.

The paper's Table 3 measures a *single* churn batch; this study runs many
churn epochs and tracks how each algorithm's interactivity evolves when the
operator applies a repair policy every epoch (full re-execution, incremental
contact repair, warm-started local search, or scheduled re-executions every
k epochs).  Replications are independent simulation runs — fresh topology,
placements and churn streams — so the study runs on the parallel
replication engine under ``ExperimentConfig.workers``.

It also holds ``repro-dve simulate``'s per-run simulator, the per-record
summary cells it shares with ``federate`` and its table renderers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord, EpochSession
from repro.dynamics.policies import make_policy
from repro.experiments.config import ExperimentConfig, ExperimentSpec, engine_study_config
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.world.scenario import DVEConfig, build_scenario

__all__ = [
    "DYNAMICS",
    "format_dynamics",
    "build_simulator",
    "record_cells",
    "format_simulate",
    "format_simulate_profile",
]

#: Summary columns of the ``simulate`` and ``federate`` commands, as
#: :func:`record_cells` names them: the final client count, the stale,
#: adopted and final adopted pQoS, and the migration bill per epoch.
SUMMARY_COLUMNS = ("clients", "after", "adopted", "final", "migrated", "migration_cost")

#: The columns an incident scenario adds: degraded clients per epoch and at the end.
DEGRADED_COLUMNS = ("degraded", "final_degraded")


def build_simulator(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    engine: dict,
) -> ChurnSimulator:
    """One replication's simulator: a fresh world and churn stream.

    ``engine`` holds the remaining :class:`ChurnSimulator` keywords.
    """
    scenario = build_scenario(config, seed=world_rng)
    return ChurnSimulator(scenario=scenario, seed=engine_rng, **engine)


def record_cells(record: EpochRecord, final_epoch: int) -> Dict[Tuple[Hashable, str], float]:
    """One epoch record's summary observations, ``{(row, column): value}``.

    The row is ``(algorithm, shard_id)``; an unsharded record's shard is
    ``-1``.  ``clients``, ``final`` and ``final_degraded`` are observed on
    ``final_epoch`` only.  A NaN value (a measurement the policy skipped) is
    left for :meth:`StudyResult.collect` to skip.
    """
    row = (record.algorithm, record.shard_id)
    cells = {
        (row, "after"): record.pqos_after,
        (row, "adopted"): record.pqos_adopted,
        (row, "migrated"): record.clients_migrated,
        (row, "migration_cost"): record.migration_cost,
        (row, "degraded"): record.clients_degraded,
    }
    if record.epoch == final_epoch:
        cells[(row, "final")] = record.pqos_adopted
        cells[(row, "final_degraded")] = record.clients_degraded
        cells[(row, "clients")] = record.num_clients_after
    return cells


def _dynamics_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    algorithms: tuple,
    churn: ChurnSpec,
    num_epochs: int,
    policy: str,
) -> Dict[tuple, float]:
    """One longitudinal run: the stale and adopted pQoS of every (epoch, algorithm)."""
    engine = dict(algorithms=list(algorithms), churn_spec=churn, policy=policy)
    simulator = build_simulator(world_rng, engine_rng, config, engine)
    observations = {}
    for record in simulator.stream(num_epochs):
        observations[(record.epoch, (record.algorithm, "stale"))] = record.pqos_after
        observations[(record.epoch, (record.algorithm, "adopted"))] = record.pqos_adopted
    return observations


def _execute(spec: ExperimentSpec, worlds: tuple, config: ExperimentConfig) -> StudyResult:
    """Replicate the longitudinal runs; one row per epoch.

    Every run builds a fresh scenario (new topology / placements), simulates
    ``spec.num_epochs`` churn epochs under ``spec.policy`` on the paper's
    fixed fleet with free migration, and the per-epoch pQoS values are
    aggregated across runs: a stale and an adopted column per algorithm.
    """
    (world,) = worlds
    point = dict(
        config=engine_study_config(world),
        algorithms=spec.algorithms,
        churn=spec.churn,
        num_epochs=spec.num_epochs,
        policy=spec.policy,
    )
    runs = replicate(_dynamics_run, [point], config.num_runs, config.seed, config.workers)
    columns = [(name, kind) for name in spec.algorithms for kind in ("stale", "adopted")]
    return StudyResult.collect(
        runs,
        spec.labels[0],
        config.num_runs,
        range(spec.num_epochs),
        columns,
        # The resolved name, e.g. "every_5_epochs".
        policy=make_policy(spec.policy).name,
        churn=spec.churn,
    )


#: Trajectory rows :func:`format_dynamics` prints before it subsamples.
MAX_ROWS = 12


def format_dynamics(result: StudyResult) -> str:
    """Render the trajectory table (subsampled for very long runs)."""
    headers = ["epoch"] + [f"{name} {kind}" for name, kind in result.columns]
    rows = result.table()
    if len(rows) > MAX_ROWS:
        step = max(1, len(rows) // MAX_ROWS)
        sampled = rows[::step]
        if sampled[-1][0] != rows[-1][0]:
            sampled.append(rows[-1])
        rows = sampled
    churn = result.setting["churn"]
    title = (
        f"Longitudinal dynamics: pQoS per epoch, {result.label}, "
        f"policy={result.setting['policy']}, churn "
        f"{churn.num_joins}j/{churn.num_leaves}l/{churn.num_moves}m, "
        f"{result.num_runs} runs"
    )
    return format_table(headers, rows, title=title, float_format=".3f")


def format_simulate(result: StudyResult) -> str:
    """Render the ``simulate`` summary: one row per algorithm, means over epochs and runs.

    ``result`` has one ``(algorithm, -1)`` row per algorithm and the
    :data:`SUMMARY_COLUMNS` (plus :data:`DEGRADED_COLUMNS` under a scenario);
    the mean final ``clients`` count goes to the title.
    """
    headers = [
        "algorithm",
        "stale pQoS (mean)",
        "adopted pQoS (mean)",
        "adopted pQoS (final)",
        "clients migrated / epoch",
        "migration cost / epoch",
    ]
    if DEGRADED_COLUMNS[0] in result.columns:
        headers.extend(["degraded / epoch", "degraded (final)"])
    rows = [[name, *values] for name, _shard, _clients, *values in result.table()]
    clients = result.mean(result.rows[-1], "clients")
    title = (
        f"Summary over {result.setting['num_epochs']} epochs × {result.num_runs} run(s); "
        f"{clients:.0f} clients at the end"
    )
    return format_table(headers, rows, title=title, float_format=".3f")


def format_simulate_profile(session: EpochSession) -> str:
    """Render ``simulate --profile``: a session's wall time and allocated bytes per phase."""
    epochs = session.num_epochs
    total = sum(session.phase_seconds.values())
    allocs = {**session.phase_alloc_bytes, "total": sum(session.phase_alloc_bytes.values())}
    labels = {"churn_gen": "churn generation", "advance": "world advance"}
    rows = [
        [
            labels.get(key, key),
            seconds,
            seconds / epochs,
            (100.0 * seconds / total) if total else 0.0,
            f"{allocs.get(key, 0) / epochs:.0f}",
        ]
        for key, seconds in [*session.phase_seconds.items(), ("total", total)]
    ]
    return format_table(
        ["phase", "seconds", "seconds / epoch", "% of total", "bytes / epoch"],
        rows,
        title=f"Phase breakdown over {epochs} epoch(s)",
        float_format=".4f",
    )


#: The dynamics study: five Table 3 churn batches in a row on the default
#: configuration, re-executing every epoch.
DYNAMICS = ExperimentSpec(
    experiment_id="dynamics",
    paper_artifact="(extension)",
    description="Longitudinal churn: per-epoch pQoS under a repair-policy schedule",
    execute=_execute,
    format=format_dynamics,
    num_epochs=5,
    churn=ChurnSpec(),
    policy="reexecute",
)
