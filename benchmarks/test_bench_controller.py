"""Rebalance-controller benchmark: control-plane epochs/sec per policy.

A :class:`~repro.dynamics.policies.RebalancePolicy` runs as the churn
engine's policy, so the controller's epochs go through
:class:`~repro.dynamics.engine.EpochSession` and its delta world advance.
Two operating points are measured:

* a *watchful* controller (0.90 target with repair slack, a mix of cheap
  none/repair decisions and occasional re-executions) — the common case for
  a well-tuned operator policy; and
* an *eager* controller (unreachable target, full re-execution every epoch)
  where the vectorised solver dominates the epoch.

Epochs/sec are recorded values, not gates: single short runs on a shared
host vary by tens of percent.  Each timed run is replayed untimed with every
world advance checked against the rebuild oracle
(``tests/reference/world_rebuild.py``), and the replay must make the same
decisions.  Machine-readable results (epochs/sec, decision mix, migration
bill) are written to ``BENCH_controller.json`` at the repository root with
``REPRO_BENCH_UPDATE=1``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import RebalancePolicy
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json
from tests.reference.records import records_equal
from tests.reference.world_rebuild import checked_advances

pytestmark = pytest.mark.benchmark

#: Epochs per timed controller run (scaled by REPRO_BENCH_RUNS in CI smoke).
NUM_EPOCHS = 5 * bench_runs(2)

LABEL = "30s-160z-2000c-1000cp"
CHURN = ChurnSpec(200, 200, 200)  # 10 % churn per epoch

#: Operating points: mostly-cheap decisions vs re-execute-every-epoch.
POLICIES = {
    "watchful (target 0.90)": RebalancePolicy(target_pqos=0.90, repair_slack=0.10),
    "eager (target 1.0)": RebalancePolicy(target_pqos=1.0, repair_slack=0.0),
}

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_controller.json"


def _controller(scenario, policy: RebalancePolicy) -> ChurnSimulator:
    return ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=CHURN,
        migration_cost=MigrationCostModel(cost_per_client=1.0),
        seed=1,
        policy=policy,
    )


def _measure(scenario, num_epochs: int) -> dict:
    results = {}
    for name, policy in POLICIES.items():
        start = time.perf_counter()
        records = _controller(scenario, policy).run(num_epochs)
        elapsed = time.perf_counter() - start
        # The untimed replay checks every world advance against the rebuild
        # oracle and must reproduce the timed run's decisions.
        with checked_advances() as checked:
            replay = _controller(scenario, policy).run(num_epochs)
        assert checked == [True] * num_epochs
        assert len(replay) == len(records)
        assert all(map(records_equal, replay, records))
        actions = [r.action for r in records]
        results[name] = {
            "epochs_per_sec": num_epochs / elapsed,
            "mean_pqos": sum(r.pqos_adopted for r in records) / len(records),
            "rebalances": actions.count("rebalance"),
            "repairs": actions.count("repair"),
            "migration_cost": sum(r.migration_cost for r in records),
        }
    return results


def test_bench_controller(benchmark, record):
    config = config_from_label(LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    results = benchmark.pedantic(
        lambda: _measure(scenario, NUM_EPOCHS), rounds=1, iterations=1
    )

    rows = [
        [
            name,
            stats["epochs_per_sec"],
            stats["mean_pqos"],
            stats["rebalances"],
            stats["repairs"],
            stats["migration_cost"],
        ]
        for name, stats in results.items()
    ]
    text = format_table(
        ["policy", "epochs/s", "mean pQoS", "rebalances", "repairs", "migration cost"],
        rows,
        title=(
            f"Rebalance controller on {LABEL}, {NUM_EPOCHS} epochs, "
            f"{CHURN.num_joins}j/{CHURN.num_leaves}l/{CHURN.num_moves}m churn"
        ),
        float_format=".2f",
    )
    record("controller", text)
    record_json(
        {
            "label": LABEL,
            "num_epochs": NUM_EPOCHS,
            "churn": {
                "joins": CHURN.num_joins,
                "leaves": CHURN.num_leaves,
                "moves": CHURN.num_moves,
            },
            "policies": results,
        },
        RESULTS_PATH,
    )


def test_bench_controller_elastic_matches_rebuild_oracle(record):
    """Every world advance under infrastructure churn equals a full rebuild."""
    config = config_from_label(LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    with checked_advances() as checked:
        ChurnSimulator(
            scenario=scenario,
            algorithms=["grez-grec"],
            churn_spec=CHURN,
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
            seed=9,
            policy=RebalancePolicy(target_pqos=0.95),
        ).run(num_epochs=2)
    assert checked == [True, True]
