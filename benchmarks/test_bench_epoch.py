"""Churn-proportional epoch ladder: incremental vs full-recompute measurement.

A churn epoch's cost should track the *churn*, not the population.  The
engine serves every measurement point from per-assignment aggregates (the
measurement stash) and delta-updates the carried-over point from the churn
batch alone, so the measure phase costs O(churn) instead of O(clients).  This
ladder runs the sparse delay backend at two client-count rungs under 1 %
churn and records the per-phase wall times (churn generation / world advance
/ solve / measure) twice per rung: as the engine runs, and under the
test-only ``full_measurement()`` context of
``tests/reference/measurement_full.py``, which makes the engine recompute
every point from the assignment arrays.

Asserted invariants:

* **Equivalence** — both measurements emit field-identical ``EpochRecord``
  streams (the incremental path is an optimisation, not an approximation).
* **Measure-phase speedup** — at the top rung the incremental measure phase
  is at least ``MIN_MEASURE_SPEEDUP``x faster than the full recompute.

The top rung's warm whole-epoch latency relative to the lower rung's
(``epoch_ratio_top_vs_lower``; the population doubles) is a recorded value,
not a gate.  On a shared 2-vCPU host 30 quiet standalone runs read
1.19x-3.31x (quartiles 2.24x / 2.30x / 2.48x) and one exceeded the old 3.0x
bound, so a fixed threshold fails on timing noise.

Results go to ``BENCH_epoch.json`` at the repository root with
``REPRO_BENCH_UPDATE=1``; CI's scale-guard job runs the smoke rungs
(``REPRO_BENCH_RUNS=1``: 25k/50k clients) as a blocking check and uploads the
JSON next to ``BENCH_scale.json``.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world import build_scenario

from benchmarks.conftest import bench_runs, record_json
from tests.reference.measurement_full import full_measurement
from tests.reference.records import records_equal

pytestmark = pytest.mark.benchmark

#: Smoke mode (CI: REPRO_BENCH_RUNS=1) halves the rungs to 25k/50k clients.
FULL = bench_runs(2) > 1

NUM_SERVERS = 500
NUM_ZONES = 2000
CAPACITY_PER_CLIENT = 1.3
SPARSE_TOP_K = 64
DELAY_BACKEND = "sparse"
CHURN_FRACTION = 0.01
NUM_EPOCHS = 4

#: (lower, top) client-count rungs; the top has twice the lower's population.
RUNGS = (50_000, 100_000) if FULL else (25_000, 50_000)
#: Required measure-phase advantage of incremental measurement at the top
#: rung (the measured advantage is ~20-50x; the bar leaves room for CI noise).
MIN_MEASURE_SPEEDUP = 5.0 if FULL else 3.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_epoch.json"


def _label(num_clients: int) -> str:
    capacity = int(num_clients * CAPACITY_PER_CLIENT)
    return f"{NUM_SERVERS}s-{NUM_ZONES}z-{num_clients}c-{capacity}cp"


def _run_rung(scenario, num_clients: int, measurement: str) -> dict:
    """Run one rung with ``"incremental"`` or ``"full"`` measurement."""
    churn = int(CHURN_FRACTION * num_clients)
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=churn, num_leaves=churn, num_moves=churn),
        seed=1,
    )
    records = []
    epoch_totals = []
    epoch_measures = []
    measuring = full_measurement() if measurement == "full" else contextlib.nullcontext()
    with measuring:
        session = simulator.session(NUM_EPOCHS)
        start = time.perf_counter()
        while not session.done:
            records.extend(session.run_epoch())
            epoch_totals.append(sum(session.last_phase_seconds.values()))
            epoch_measures.append(session.last_phase_seconds["measure"])
        wall = time.perf_counter() - start
    return {
        "measurement": measurement,
        "num_clients": num_clients,
        "num_epochs": NUM_EPOCHS,
        "churn_per_kind": churn,
        "epoch_seconds_mean": wall / NUM_EPOCHS,
        # Warm epoch: the first epoch pays one-time cache warm-up, so the
        # minimum is the steady-state latency the ratio guard compares.
        "epoch_seconds_warm": min(epoch_totals),
        "measure_seconds_mean": session.phase_seconds["measure"] / NUM_EPOCHS,
        "measure_seconds_warm": min(epoch_measures),
        "phase_seconds_per_epoch": {
            key: value / NUM_EPOCHS for key, value in session.phase_seconds.items()
        },
        "records": records,
    }


def _measure() -> dict:
    results = []
    for num_clients in RUNGS:
        config = config_from_label(_label(num_clients)).with_updates(
            delay_backend=DELAY_BACKEND, sparse_top_k=SPARSE_TOP_K
        )
        scenario = build_scenario(config, seed=0)
        for measurement in ("full", "incremental"):
            results.append(_run_rung(scenario, num_clients, measurement))
    return {"rungs": results}


def test_bench_epoch(benchmark, record):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    by_key = {(r["num_clients"], r["measurement"]): r for r in results["rungs"]}
    lower, top = RUNGS

    # Equivalence: incremental measurement is an optimisation, not an
    # approximation — record streams must agree field-for-field.
    for num_clients in RUNGS:
        full_records = by_key[(num_clients, "full")]["records"]
        incr_records = by_key[(num_clients, "incremental")]["records"]
        assert len(full_records) == len(incr_records) == NUM_EPOCHS
        for a, b in zip(full_records, incr_records):
            assert records_equal(a, b), (num_clients, a, b)
    for rung in results["rungs"]:
        del rung["records"]  # not serialisable, and no longer needed

    rows = [
        [
            f"{rung['num_clients']:,}",
            rung["measurement"],
            rung["epoch_seconds_mean"],
            rung["epoch_seconds_warm"],
            rung["phase_seconds_per_epoch"]["churn_gen"],
            rung["phase_seconds_per_epoch"]["advance"],
            rung["phase_seconds_per_epoch"]["solve"],
            rung["phase_seconds_per_epoch"]["measure"],
        ]
        for rung in results["rungs"]
    ]
    text = format_table(
        [
            "clients",
            "measurement",
            "s/epoch",
            "warm s/epoch",
            "churn gen",
            "advance",
            "solve",
            "measure",
        ],
        rows,
        title=(
            f"Churn-proportional epoch ladder ({DELAY_BACKEND} delays, "
            f"{CHURN_FRACTION:.0%} churn, {NUM_EPOCHS} epochs, re-execute schedule; "
            "per-phase columns are seconds/epoch)"
        ),
        float_format=".4f",
    )
    record("epoch", text)

    speedup = (
        by_key[(top, "full")]["measure_seconds_mean"]
        / max(by_key[(top, "incremental")]["measure_seconds_mean"], 1e-12)
    )
    epoch_ratio = (
        by_key[(top, "incremental")]["epoch_seconds_warm"]
        / by_key[(lower, "incremental")]["epoch_seconds_warm"]
    )
    record_json(
        {
            "num_servers": NUM_SERVERS,
            "num_zones": NUM_ZONES,
            "delay_backend": DELAY_BACKEND,
            "sparse_top_k": SPARSE_TOP_K,
            "churn_fraction": CHURN_FRACTION,
            "num_epochs": NUM_EPOCHS,
            "full_ladder": FULL,
            "min_measure_speedup": MIN_MEASURE_SPEEDUP,
            "measure_speedup_top": speedup,
            "epoch_ratio_top_vs_lower": epoch_ratio,
            **results,
        },
        RESULTS_PATH,
    )

    # The incremental measure phase must beat the full recompute decisively.
    assert speedup >= MIN_MEASURE_SPEEDUP, (speedup, by_key[(top, "full")])
