"""Federation benchmark: per-epoch cost vs shard count, arbiter overhead.

A federated world splits one client population across N shards that share one
topology, one all-pairs delay matrix and one server fleet
(:mod:`repro.world.federation`).  Two claims are measured:

* **Sub-linear epoch cost in shard count.**  The shared-substrate design means
  N shards do *not* cost N full simulations: the topology and delay model are
  built once and shared by identity (asserted below), each shard solves a
  population of ``clients / N``, and the solver's per-epoch cost is
  super-linear in population — so stepping all N shards through an epoch
  stays in the same ballpark as stepping the monolithic world, rather than
  scaling with N.
* **Arbitration is cheap relative to the epoch.**  The cross-shard arbiters
  (:mod:`repro.core.arbitration`) run between epochs; their cost — including
  the per-shard signal extraction and, for the regret arbiter, the pooled
  max-regret placement on the vectorised backend — must stay a small
  fraction of one simulation epoch, or the control plane would eat its own
  savings.

Machine-readable results (epochs/sec per shard count, scaling ratios, arbiter
seconds per decision, overhead fractions) are written to
``BENCH_federation.json`` at the repository root when
``REPRO_BENCH_UPDATE=1``; CI's benchmark-smoke job sets it and uploads the
file with the other ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core.arbitration import make_arbiter
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.federation_engine import FederatedSimulator
from repro.dynamics.migration import MigrationCostModel
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world.federation import build_federation

from benchmarks.conftest import bench_runs, record_json

pytestmark = pytest.mark.benchmark

#: Epochs per timed federation run (scaled by REPRO_BENCH_RUNS in CI smoke).
NUM_EPOCHS = 4 * bench_runs(2)

LABEL = "30s-160z-2000c-1000cp"
SHARD_COUNTS = (1, 2, 4)
#: 10 % churn of the whole population per epoch, split over the shards.
TOTAL_CHURN = 200

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_federation.json"


def _build(config, num_shards: int):
    world = build_federation(config, num_shards=num_shards, seed=0)
    churn = [
        ChurnSpec(
            num_joins=TOTAL_CHURN // num_shards,
            num_leaves=TOTAL_CHURN // num_shards,
            num_moves=TOTAL_CHURN // num_shards,
        )
    ] * num_shards
    return world, churn


def _time_epochs(world, churn, arbiter: str, num_epochs: int) -> dict:
    simulator = FederatedSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter=arbiter,
        churn_spec=churn,
        migration_cost=MigrationCostModel(cost_per_client=1.0),
        seed=1,
    )
    start = time.perf_counter()
    records = simulator.run(num_epochs)
    elapsed = time.perf_counter() - start
    return {
        "epochs_per_sec": num_epochs / elapsed,
        "seconds_per_epoch": elapsed / num_epochs,
        "records": len(records),
    }


def _time_arbiter(world, churn, name: str, num_epochs: int) -> dict:
    """Seconds per arbitration decision, measured on live simulation signals."""
    simulator = FederatedSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter="static",  # keep the epochs arbiter-free; we time decisions below
        churn_spec=churn,
        seed=1,
    )
    sessions = [sim.session(num_epochs) for sim in simulator._shard_simulators()]
    arbiter = make_arbiter(name)
    total = 0.0
    decisions = 0
    for _ in range(num_epochs):
        for session in sessions:
            session.run_epoch()
        start = time.perf_counter()
        signals = simulator._signals(sessions, arbiter.needs_zone_costs)
        arbiter.arbitrate(world.servers.capacities, signals)
        total += time.perf_counter() - start
        decisions += 1
    return {"seconds_per_decision": total / decisions}


def _measure(num_epochs: int) -> dict:
    config = config_from_label(LABEL, correlation=0.0)
    results: dict = {"shard_counts": {}, "arbiters": {}}
    for n in SHARD_COUNTS:
        world, churn = _build(config, n)
        # Zero-copy sharing of the substrate is load-bearing for the scaling
        # claim — assert it where the timing is taken.
        assert all(s.delay_model is world.delay_model for s in world.shards)
        assert all(s.topology is world.topology for s in world.shards)
        results["shard_counts"][str(n)] = _time_epochs(world, churn, "static", num_epochs)
    base = results["shard_counts"]["1"]["seconds_per_epoch"]
    for n in SHARD_COUNTS[1:]:
        entry = results["shard_counts"][str(n)]
        entry["epoch_cost_vs_monolithic"] = entry["seconds_per_epoch"] / base

    world4, churn4 = _build(config, SHARD_COUNTS[-1])
    epoch4 = results["shard_counts"][str(SHARD_COUNTS[-1])]["seconds_per_epoch"]
    for name in ("proportional", "regret"):
        timing = _time_arbiter(world4, churn4, name, max(2, num_epochs // 2))
        timing["fraction_of_epoch"] = timing["seconds_per_decision"] / epoch4
        results["arbiters"][name] = timing

    return results


def test_bench_federation(benchmark, record):
    results = benchmark.pedantic(lambda: _measure(NUM_EPOCHS), rounds=1, iterations=1)

    rows = []
    for n in SHARD_COUNTS:
        entry = results["shard_counts"][str(n)]
        rows.append(
            [
                f"{n} shard(s)",
                entry["epochs_per_sec"],
                entry["seconds_per_epoch"] * 1000.0,
                entry.get("epoch_cost_vs_monolithic", 1.0),
            ]
        )
    arb_rows = [
        [
            name,
            timing["seconds_per_decision"] * 1000.0,
            timing["fraction_of_epoch"],
        ]
        for name, timing in results["arbiters"].items()
    ]
    cost4 = results["shard_counts"][str(SHARD_COUNTS[-1])]["epoch_cost_vs_monolithic"]
    text = (
        format_table(
            ["federation", "epochs/s", "ms/epoch", "cost vs 1 shard"],
            rows,
            title=(
                f"Federated epoch cost on {LABEL} split over shards "
                f"({NUM_EPOCHS} epochs, static arbiter): {SHARD_COUNTS[-1]} shards cost "
                f"{cost4:.2f}x the monolithic world (linear scaling would be "
                f"{SHARD_COUNTS[-1]:.0f}x)"
            ),
            float_format=".2f",
        )
        + "\n\n"
        + format_table(
            ["arbiter", "ms/decision", "fraction of one epoch"],
            arb_rows,
            title="Arbiter overhead on the 4-shard federation",
            float_format=".3f",
        )
    )
    record("federation", text)
    record_json(
        {
            "label": LABEL,
            "num_epochs": NUM_EPOCHS,
            "total_churn_per_epoch": TOTAL_CHURN,
            **results,
        },
        RESULTS_PATH,
    )

    # Sub-linear scaling in shard count: N shards on the shared substrate must
    # cost well under N monolithic epochs (the slack absorbs smoke-scale
    # timing noise; linear scaling would be 4.0).
    assert cost4 <= 2.5
    # Arbitration must stay a fraction of one epoch, even for the solver-backed
    # regret arbiter.
    for name, timing in results["arbiters"].items():
        assert timing["fraction_of_epoch"] <= 0.5, name
