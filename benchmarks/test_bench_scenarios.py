"""Incident scenario chaos suite + outage-recovery epoch cost guard.

Two guarantees back the scenario library:

* **Chaos smoke** — every registered scenario (``SCENARIO_LIBRARY``) runs end
  to end through ``ChurnSimulator`` (under the default schedule and under a
  ``RebalancePolicy``) and ``FederatedSimulator`` without raising, even when
  the disturbance makes the world infeasible, and the degraded pool drains
  back to zero by the end of the run (full recovery).
* **Recovery is cheap** — graceful degradation is bookkeeping, not a solver
  restart.  Under the sparse delay backend with incremental measurement, the
  warm epoch cost inside an outage-and-recovery window stays within
  ``MAX_RECOVERY_RATIO``x of the steady-state warm epoch at the same rung.

Results go to ``BENCH_scenarios.json`` at the repository root; CI's chaos-smoke
job runs this file with ``REPRO_BENCH_RUNS=1`` as a blocking check and uploads
the JSON as an artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.federation_engine import AGGREGATE_SHARD_ID, FederatedSimulator
from repro.dynamics.policies import RebalancePolicy
from repro.dynamics.scenarios import SCENARIO_LIBRARY
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.metrics.recovery import recovery_report
from repro.world import build_scenario
from repro.world.federation import build_federation

from benchmarks.conftest import bench_runs, record_json

pytestmark = pytest.mark.benchmark

#: Smoke mode (CI: REPRO_BENCH_RUNS=1) shrinks the perf rung to 5k clients.
FULL = bench_runs(2) > 1

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_scenarios.json"

# ---------------------------------------------------------------------- #
# Chaos sweep: a small world every scenario is known to recover on.
# ---------------------------------------------------------------------- #
CHAOS_LABEL = "6s-8z-120c-100cp"
CHAOS_CHURN = ChurnSpec(num_joins=10, num_leaves=10, num_moves=5)
CHAOS_PATIENCE = 6
CHAOS_EPOCHS = 18
CHAOS_CONTROLLER_EPOCHS = 18
CHAOS_FEDERATION_EPOCHS = 18
CHAOS_SHARDS = 2

# ---------------------------------------------------------------------- #
# Recovery-cost rung: sparse delays, incremental measurement, 1 % churn.
# ---------------------------------------------------------------------- #
PERF_CLIENTS = 20_000 if FULL else 5_000
PERF_SERVERS = 100
PERF_ZONES = 400
PERF_CAPACITY_PER_CLIENT = 1.3
PERF_SPARSE_TOP_K = 32
PERF_CHURN_FRACTION = 0.01
PERF_STEADY_EPOCHS = 4
#: Outage radius sized so surviving capacity drops below demand at each
#: rung's load factor (~0.84 full, ~0.22 smoke); epochs 4-9 are the
#: incident-and-recovery window the cost guard measures.
PERF_OUTAGE_RADIUS = 50 if FULL else 90
PERF_OUTAGE = f"outage:zone=0,radius={PERF_OUTAGE_RADIUS},start=4,duration=3"
PERF_SCENARIO_EPOCHS = 10
PERF_WINDOW = range(4, PERF_SCENARIO_EPOCHS)
#: Warm epoch cost inside the incident window, relative to steady state.
MAX_RECOVERY_RATIO = 2.0


def _chaos_one(scenario, config, name: str) -> dict:
    """Run one library scenario through all three engines; return a summary."""
    admission = AdmissionPolicy(patience_epochs=CHAOS_PATIENCE)

    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=CHAOS_CHURN,
        seed=7,
        scenario_timeline=name,
        admission_policy=admission,
    )
    records = simulator.run(CHAOS_EPOCHS)
    degraded = [r.clients_degraded for r in records]
    assert all(r.capacity_deficit >= 0.0 for r in records), name
    assert degraded[-1] == 0, (name, degraded)
    report = recovery_report(records, algorithm="grez-grec", tolerance=0.1)

    controlled = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=CHAOS_CHURN,
        seed=7,
        policy=RebalancePolicy(),
        scenario_timeline=name,
        admission_policy=admission,
    ).run(CHAOS_CONTROLLER_EPOCHS)
    assert len(controlled) == CHAOS_CONTROLLER_EPOCHS, name
    assert controlled[-1].clients_degraded == 0, name

    federation = build_federation(config, num_shards=CHAOS_SHARDS, seed=5)
    federated = FederatedSimulator(
        world=federation,
        algorithms=["grez-grec"],
        churn_spec=CHAOS_CHURN,
        seed=7,
        scenario_timeline=name,
        admission_policy=admission,
    )
    fed_records = federated.run(CHAOS_FEDERATION_EPOCHS)
    fed_final = [
        r
        for r in fed_records
        if r.shard_id == AGGREGATE_SHARD_ID and r.epoch == CHAOS_FEDERATION_EPOCHS - 1
    ]
    assert fed_final and all(r.clients_degraded == 0 for r in fed_final), name

    return {
        "scenario": name,
        "max_clients_degraded": max(degraded),
        "final_clients_degraded": degraded[-1],
        "degraded_client_epochs": report.degraded_client_epochs,
        "time_to_recover": report.time_to_recover,
        "recovered": report.recovered,
        "max_capacity_deficit": report.max_capacity_deficit,
    }


def _perf_label() -> str:
    capacity = int(PERF_CLIENTS * PERF_CAPACITY_PER_CLIENT)
    return f"{PERF_SERVERS}s-{PERF_ZONES}z-{PERF_CLIENTS}c-{capacity}cp"


def _perf_run(scenario, timeline, num_epochs: int) -> dict:
    """Run the perf rung; return per-epoch wall times and the records."""
    churn = int(PERF_CHURN_FRACTION * PERF_CLIENTS)
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=churn, num_leaves=churn, num_moves=churn),
        seed=1,
        scenario_timeline=timeline,
        admission_policy=None if timeline is None else AdmissionPolicy(patience_epochs=4),
    )
    session = simulator.session(num_epochs)
    records = []
    epoch_totals = []
    start = time.perf_counter()
    while not session.done:
        records.extend(session.run_epoch())
        epoch_totals.append(sum(session.last_phase_seconds.values()))
    wall = time.perf_counter() - start
    return {
        "num_epochs": num_epochs,
        "wall_seconds": wall,
        "epoch_seconds": epoch_totals,
        "records": records,
    }


def _measure() -> dict:
    chaos_config = config_from_label(CHAOS_LABEL).with_updates(correlation=0.0)
    chaos_world = build_scenario(chaos_config, seed=1)
    chaos = [
        _chaos_one(chaos_world, chaos_config, name) for name in sorted(SCENARIO_LIBRARY)
    ]

    perf_config = config_from_label(_perf_label()).with_updates(
        delay_backend="sparse", sparse_top_k=PERF_SPARSE_TOP_K
    )
    perf_world = build_scenario(perf_config, seed=0)
    steady = _perf_run(perf_world, None, PERF_STEADY_EPOCHS)
    incident = _perf_run(perf_world, PERF_OUTAGE, PERF_SCENARIO_EPOCHS)
    return {"chaos": chaos, "steady": steady, "incident": incident}


def test_bench_scenarios(benchmark, record):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    chaos_rows = [
        [
            entry["scenario"],
            entry["max_clients_degraded"],
            entry["degraded_client_epochs"],
            entry["time_to_recover"],
            "yes" if entry["recovered"] else "no",
        ]
        for entry in results["chaos"]
    ]
    # Zero crashes is asserted inside _chaos_one; here we require that the
    # pool drained for every scenario (already asserted) and that at least
    # one scenario exercised the shedding path at all.
    assert any(entry["max_clients_degraded"] > 0 for entry in results["chaos"])

    steady, incident = results["steady"], results["incident"]
    degraded = [r.clients_degraded for r in incident["records"]]
    assert max(degraded) > 0, degraded  # the outage actually shed clients
    assert degraded[-1] == 0, degraded  # ... and the pool drained
    del steady["records"], incident["records"]

    # Warm epochs: the first epoch of each run pays one-time cache warm-up.
    steady_warm = min(steady["epoch_seconds"][1:])
    window = [incident["epoch_seconds"][e] for e in PERF_WINDOW]
    recovery_warm = min(window)
    ratio = recovery_warm / max(steady_warm, 1e-12)

    text = format_table(
        ["scenario", "max pool", "degraded c-e", "ttr (epochs)", "recovered"],
        chaos_rows,
        title=(
            f"Chaos sweep on {CHAOS_LABEL} ({CHAOS_EPOCHS} epochs, "
            f"patience {CHAOS_PATIENCE}; every scenario also ran through the "
            "controller and a 2-shard federation without raising)"
        ),
    )
    perf_text = format_table(
        ["phase", "warm s/epoch"],
        [["steady state", steady_warm], ["outage recovery window", recovery_warm]],
        title=(
            f"Outage-recovery epoch cost on {_perf_label()} (sparse delays, "
            f"incremental measurement, {PERF_CHURN_FRACTION:.0%} churn; "
            f"guard: ratio <= {MAX_RECOVERY_RATIO}x, measured {ratio:.2f}x)"
        ),
        float_format=".4f",
    )
    record("scenarios", text + "\n\n" + perf_text)

    record_json(
        {
            "chaos_label": CHAOS_LABEL,
            "chaos_epochs": CHAOS_EPOCHS,
            "chaos_patience": CHAOS_PATIENCE,
            "perf_label": _perf_label(),
            "perf_outage": PERF_OUTAGE,
            "full_ladder": FULL,
            "max_recovery_ratio": MAX_RECOVERY_RATIO,
            "steady_warm_epoch_seconds": steady_warm,
            "recovery_warm_epoch_seconds": recovery_warm,
            "recovery_epoch_ratio": ratio,
            **results,
        },
        RESULTS_PATH,
    )

    # Graceful degradation must not super-linearise the epoch: the warm
    # epoch inside the incident window stays close to steady state.
    assert ratio <= MAX_RECOVERY_RATIO, (ratio, incident["epoch_seconds"])
