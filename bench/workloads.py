"""The benchmark's four workloads, built only from ``repro``'s public API.

Each workload is a closed loop with one caller and no think time: an op is
issued when the previous one returns, and every epoch depends on the state
the previous one left, so ops are inherently sequential.  All of them run
the default serial paths (no process or thread workers).  Why each workload
exists, and which layer it stresses, is in ``BENCHMARK.json`` and
``bench/README.md``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.federation_engine import FederatedSimulator
from repro.dynamics.migration import MigrationCostModel
from repro.experiments.config import config_from_label
from repro.experiments.figure4 import FIGURE4_LABEL, run_figure4
from repro.world.federation import build_federation
from repro.world.scenario import build_scenario

from bench.checks import EPOCH, FEDERATED, REPLICATION

__all__ = ["Workload", "WORKLOADS"]

#: Seed of every workload's world.  The world is a fixed fixture (like the
#: paper's named configurations); ``--seed`` drives the churn, solver and
#: replication streams, so pQoS and op cost do not swing with the world drawn.
WORLD_SEED = 0
FED_SHARDS = 4
FED_TIMELINE = ("maintenance:period=6,window=2,frac=0.5,start=1", "diurnal")


@dataclass(frozen=True)
class Workload:
    """One workload: how to set it up and what an op's output looks like.

    ``start(seed, total_ops)`` builds the world and returns the op callable;
    ``warmup`` ops run untimed (as part of set-up) before the timed ops.
    ``op_ms`` is the nominal op wall on the reference host (2 vCPU x86-64,
    Python 3.11, numpy 2.4); it only converts a round's seconds into a fixed
    op count, so both commits of a comparison do the same work.
    """

    kind: str
    warmup: int
    op_ms: float
    start: Callable[[int, int], Callable[[], object]]
    expected: dict

    def ops_for(self, seconds: float) -> int:
        """Fixed op count for a round of ``seconds`` on the reference host."""
        return max(1, round(seconds * 1000.0 / self.op_ms))


def _steady_churn(seed: int, total_ops: int):
    config = config_from_label(FIGURE4_LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=WORLD_SEED)
    session = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=20, num_leaves=20, num_moves=20),
        seed=seed,
        policy="warm_start",
        measurement_backend="incremental",
    ).session(total_ops)
    return lambda: session.run_epoch()


def _reexec_100k(seed: int, total_ops: int):
    config = config_from_label("500s-2000z-100000c-130000cp").with_updates(
        delay_backend="sparse", sparse_top_k=64
    )
    session = ChurnSimulator(
        scenario=build_scenario(config, seed=WORLD_SEED),
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=1000, num_leaves=1000, num_moves=1000),
        seed=seed,
        policy="reexecute",
        measurement_backend="incremental",
    ).session(total_ops)
    return lambda: session.run_epoch()


def _paper_replications(seed: int, total_ops: int):
    del total_ops  # every replication is independent
    counter = itertools.count()
    return lambda: run_figure4(num_runs=1, seed=np.random.SeedSequence([seed, next(counter)]))


def _fed_maintenance(seed: int, total_ops: int):
    world = build_federation(
        config_from_label("30s-160z-2000c-600cp", correlation=0.0),
        num_shards=FED_SHARDS,
        seed=WORLD_SEED,
    )
    stream = FederatedSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter="regret",
        churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
        migration_cost=MigrationCostModel(cost_per_client=1.0),
        seed=seed,
        policy="warm_start",
        measurement_backend="incremental",
        scenario_timeline=list(FED_TIMELINE),
    ).stream(total_ops)
    # One federated epoch: every shard's record, then the aggregate; the
    # arbitration after an epoch runs when the next epoch's first record is
    # pulled, so it lands in the next op.
    return lambda: list(itertools.islice(stream, FED_SHARDS + 1))


WORKLOADS: dict[str, Workload] = {
    "steady-churn": Workload(EPOCH, 200, 1.05, _steady_churn, {"net_joins": 0}),
    "reexec-100k": Workload(EPOCH, 2, 280.0, _reexec_100k, {"net_joins": 0}),
    "paper-replications": Workload(
        REPLICATION, 3, 50.0, _paper_replications, {"num_clients": 2000}
    ),
    "fed-maintenance": Workload(
        FEDERATED, 12, 9.0, _fed_maintenance, {"num_shards": FED_SHARDS}
    ),
}
