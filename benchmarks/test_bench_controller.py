"""Rebalance-controller benchmark: delta vs rebuild world advance.

``RebalanceController`` runs its epochs through the churn engine's
:class:`~repro.dynamics.engine.EpochSession`, so its world advance has the
engine's two backends: ``backend="delta"`` updates the scenario and instance
in place, ``backend="rebuild"`` rebuilds the scenario and re-validates the
full instance every epoch.  The two produce identical traces (asserted here),
so the epochs/sec ratio is what the delta pipeline saves the control plane.

Two operating points are measured:

* a *watchful* controller (0.90 target with repair slack, a mix of cheap
  none/repair decisions and occasional re-executions) — the common case for
  a well-tuned operator policy; and
* an *eager* controller (unreachable target, full re-execution every epoch)
  where the vectorised solver dominates the epoch and the delta advantage
  compresses towards parity.

The delta/rebuild speedups are recorded values, not gates: single short runs
on a shared host have read anywhere from 0.88x to 1.24x, so a fixed
threshold fails on timing noise.  Machine-readable results (epochs/sec per pipeline,
speedups, decision mix, migration bill) are written to
``BENCH_controller.json`` at the repository root with ``REPRO_BENCH_UPDATE=1``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.controller import RebalanceController, RebalancePolicy
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json

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


def _time_controller(scenario, policy: RebalancePolicy, backend: str, num_epochs: int):
    """Epochs/sec plus the trace of one controller run."""
    controller = RebalanceController(
        scenario=scenario,
        algorithm="grez-grec",
        policy=policy,
        churn_spec=CHURN,
        seed=1,
        migration_cost=MigrationCostModel(cost_per_client=1.0),
        backend=backend,
    )
    start = time.perf_counter()
    trace = controller.run(num_epochs)
    elapsed = time.perf_counter() - start
    return num_epochs / elapsed, trace


def _measure(scenario, num_epochs: int) -> dict:
    results = {}
    for name, policy in POLICIES.items():
        pipelines = {}
        traces = {}
        for backend in ("rebuild", "delta"):
            eps, trace = _time_controller(scenario, policy, backend, num_epochs)
            pipelines[backend] = {
                "epochs_per_sec": eps,
                "mean_pqos": trace.mean_pqos,
                "rebalances": trace.num_rebalances,
                "repairs": trace.num_repairs,
                "migration_cost": trace.total_migration_cost,
            }
            traces[backend] = trace
        # Both backends must make identical decisions — the speedup is pure
        # pipeline, not different work.
        assert traces["delta"].steps == traces["rebuild"].steps
        results[name] = {
            "pipelines": pipelines,
            "speedup_delta_vs_rebuild": (
                pipelines["delta"]["epochs_per_sec"] / pipelines["rebuild"]["epochs_per_sec"]
            ),
        }
    return results


def test_bench_controller(benchmark, record):
    config = config_from_label(LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    results = benchmark.pedantic(
        lambda: _measure(scenario, NUM_EPOCHS), rounds=1, iterations=1
    )

    rows = []
    for name, data in results.items():
        for backend, stats in data["pipelines"].items():
            rows.append(
                [
                    name,
                    backend,
                    stats["epochs_per_sec"],
                    stats["mean_pqos"],
                    stats["rebalances"],
                    stats["repairs"],
                    stats["migration_cost"],
                ]
            )
    watchful = results["watchful (target 0.90)"]["speedup_delta_vs_rebuild"]
    eager = results["eager (target 1.0)"]["speedup_delta_vs_rebuild"]
    text = format_table(
        ["policy", "pipeline", "epochs/s", "mean pQoS", "rebalances", "repairs", "migration cost"],
        rows,
        title=(
            f"Rebalance controller on {LABEL}, {NUM_EPOCHS} epochs, "
            f"{CHURN.num_joins}j/{CHURN.num_leaves}l/{CHURN.num_moves}m churn: "
            f"delta speedup {watchful:.2f}x watchful, {eager:.2f}x eager"
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


def test_bench_controller_elastic_equivalence(record):
    """Delta and rebuild traces stay identical under infrastructure churn."""
    config = config_from_label(LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    traces = {}
    for backend in ("delta", "rebuild"):
        traces[backend] = RebalanceController(
            scenario=scenario,
            algorithm="grez-grec",
            policy=RebalancePolicy(target_pqos=0.95),
            churn_spec=CHURN,
            seed=9,
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
            backend=backend,
        ).run(num_epochs=2)
    assert traces["delta"].steps == traces["rebuild"].steps
