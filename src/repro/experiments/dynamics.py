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

from typing import Dict, Optional, Sequence

import numpy as np

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.policies import make_policy
from repro.experiments.config import PAPER_DEFAULT_LABEL, engine_study_config
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.experiments.runner import StudyResult, replicate
from repro.io.tables import format_table
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEConfig, build_scenario

__all__ = ["run_dynamics", "format_dynamics"]


def _dynamics_run(
    world_rng: np.random.Generator,
    engine_rng: np.random.Generator,
    config: DVEConfig,
    algorithms: tuple,
    churn: ChurnSpec,
    num_epochs: int,
    policy: str,
    policy_period: int,
) -> Dict[tuple, float]:
    """One longitudinal run: the stale and adopted pQoS of every (epoch, algorithm)."""
    simulator = ChurnSimulator(
        scenario=build_scenario(config, seed=world_rng),
        algorithms=list(algorithms),
        churn_spec=churn,
        seed=engine_rng,
        policy=policy,
        policy_period=policy_period,
    )
    observations = {}
    for record in simulator.stream(num_epochs):
        observations[(record.epoch, (record.algorithm, "stale"))] = record.pqos_after
        observations[(record.epoch, (record.algorithm, "adopted"))] = record.pqos_adopted
    return observations


def run_dynamics(
    label: str = PAPER_DEFAULT_LABEL,
    algorithms: Optional[Sequence[str]] = None,
    num_runs: int = 3,
    seed: SeedLike = 0,
    num_epochs: int = 5,
    policy: str = "reexecute",
    policy_period: int = 0,
    churn: ChurnSpec | None = None,
    workers: Optional[int] = None,
    delay_backend: Optional[str] = None,
) -> StudyResult:
    """Run the longitudinal dynamics experiment.

    Every run builds a fresh scenario (new topology / placements), simulates
    ``num_epochs`` churn epochs under the given repair policy on the paper's
    fixed fleet with free migration, and the per-epoch pQoS values are
    aggregated across runs: one row per epoch, a stale and an adopted column
    per algorithm.
    """
    algorithms = list(algorithms or PAPER_ALGORITHM_ORDER)
    churn = churn or ChurnSpec()
    point = dict(
        config=engine_study_config(label, delay_backend),
        algorithms=tuple(algorithms),
        churn=churn,
        num_epochs=num_epochs,
        policy=policy,
        policy_period=policy_period,
    )
    runs = replicate(_dynamics_run, [point], num_runs, seed, workers)
    columns = [(name, kind) for name in algorithms for kind in ("stale", "adopted")]
    # Resolve the schedule name once so the result reports e.g. "every_5_epochs".
    schedule = make_policy(policy, period=policy_period or None)
    return StudyResult.collect(
        runs, label, num_runs, range(num_epochs), columns, policy=schedule.name, churn=churn
    )


def format_dynamics(result: StudyResult, max_rows: int = 12) -> str:
    """Render the trajectory table (subsampled for very long runs)."""
    headers = ["epoch"] + [f"{name} {kind}" for name, kind in result.columns]
    rows = result.table()
    if len(rows) > max_rows:
        step = max(1, len(rows) // max_rows)
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
