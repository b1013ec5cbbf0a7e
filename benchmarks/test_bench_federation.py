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

Each shard count's epoch cost, and each arbiter's decision cost, is the
fastest of :data:`EPOCH_REPEATS` runs timed with the garbage collector off,
as ``timeit`` does.  The measurement
runs in a child interpreter with BLAS pinned to one thread, as the ``bench``
ledger's rounds do: a single run timed inside a whole-suite process read
the host's load as often as the scaling (the 4-shard ratio spread from 1.68
to 2.51 on a two-CPU host).

Machine-readable results (epochs/sec per shard count, scaling ratios, arbiter
seconds per decision, overhead fractions) are written to
``BENCH_federation.json`` at the repository root when
``REPRO_BENCH_UPDATE=1``; CI's benchmark-smoke job sets it and uploads the
file with the other ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
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

#: Timed runs per shard count and per arbiter; the fastest is reported.
EPOCH_REPEATS = 5
#: Wall-clock limit of the child interpreter that runs the measurement.
CHILD_TIMEOUT_S = 900

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "BENCH_federation.json"


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


def _timed(fn):
    """``(seconds, result)`` of one call, with the garbage collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def _run_epochs(world, churn, arbiter: str, num_epochs: int) -> tuple:
    """``(seconds, records)`` of one timed run of ``num_epochs`` federated epochs."""
    simulator = FederatedSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter=arbiter,
        churn_spec=churn,
        migration_cost=MigrationCostModel(cost_per_client=1.0),
        seed=1,
    )
    return _timed(lambda: simulator.run(num_epochs))


def _time_arbiter(world, churn, name: str, num_epochs: int) -> float:
    """Mean seconds per arbitration decision, measured on live simulation signals."""
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
    for _ in range(num_epochs):
        for session in sessions:
            session.run_epoch()
        total += _timed(
            lambda: arbiter.arbitrate(
                world.servers.capacities,
                simulator._signals(sessions, arbiter.needs_zone_costs),
            )
        )[0]
    return total / num_epochs


def _measure(num_epochs: int) -> dict:
    """Epoch cost per shard count and decision cost per arbiter, each the
    fastest of :data:`EPOCH_REPEATS` runs; every repeat times each shard count
    and each arbiter once, so a slow stretch of the host does not fall on
    one side of a ratio only."""
    config = config_from_label(LABEL, correlation=0.0)
    worlds = {n: _build(config, n) for n in SHARD_COUNTS}
    for world, _churn in worlds.values():
        # Zero-copy sharing of the substrate is load-bearing for the scaling
        # claim — assert it where the timing is taken.
        assert all(s.delay_model is world.delay_model for s in world.shards)
        assert all(s.topology is world.topology for s in world.shards)
    world4, churn4 = worlds[SHARD_COUNTS[-1]]
    arbiters = ("proportional", "regret")
    runs: dict = {n: [] for n in SHARD_COUNTS}
    decisions: dict = {name: [] for name in arbiters}
    for _ in range(EPOCH_REPEATS):
        for n, (world, churn) in worlds.items():
            runs[n].append(_run_epochs(world, churn, "static", num_epochs))
        for name in arbiters:
            decisions[name].append(
                _time_arbiter(world4, churn4, name, max(2, num_epochs // 2))
            )
    results: dict = {"shard_counts": {}, "arbiters": {}}
    for n in SHARD_COUNTS:
        elapsed, records = min(runs[n], key=lambda run: run[0])
        results["shard_counts"][str(n)] = {
            "epochs_per_sec": num_epochs / elapsed,
            "seconds_per_epoch": elapsed / num_epochs,
            "records": len(records),
        }
    base = results["shard_counts"]["1"]["seconds_per_epoch"]
    for n in SHARD_COUNTS[1:]:
        entry = results["shard_counts"][str(n)]
        entry["epoch_cost_vs_monolithic"] = entry["seconds_per_epoch"] / base

    epoch4 = results["shard_counts"][str(SHARD_COUNTS[-1])]["seconds_per_epoch"]
    for name in arbiters:
        decision = min(decisions[name])
        results["arbiters"][name] = {
            "seconds_per_decision": decision,
            "fraction_of_epoch": decision / epoch4,
        }

    return results


def _measure_in_child() -> dict:
    """:func:`_measure` in a fresh interpreter with BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = (
        "import json, benchmarks.test_bench_federation as m; "
        "print(json.dumps(m._measure(m.NUM_EPOCHS)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_federation(benchmark, record):
    results = benchmark.pedantic(_measure_in_child, rounds=1, iterations=1)

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
