"""Parallel replication engine: wall-clock speedup on a figure4-sized run.

Runs the Figure 4 experiment (largest paper configuration, delay collection
on) serially and with four worker processes and asserts the observations are
bit-identical.  The pool's wall-clock speedup is a recorded value, not a
gate: at ~25 ms per serial replication the pool's task dispatch and result
transfer cost about as much as the work it spreads, and on a shared 2-vCPU
Xeon four workers measured 0.74x-1.02x of serial over ten tier-1 runs.

The serial and pool wall times and their ratio are written to
``BENCH_parallel.json`` when ``REPRO_BENCH_UPDATE=1``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import numpy as np

from repro.experiments.config import config_from_label
from repro.experiments.runner import run_replications
from repro.io.serialization import load_json
from repro.utils.pool import available_cpus

from benchmarks.conftest import bench_runs, record_json

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(4)
LABEL = "30s-160z-2000c-1000cp"
ALGORITHMS = ["ranz-virc", "grez-grec"]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _record_parallel(fields: dict) -> None:
    """Merge ``fields`` into ``BENCH_parallel.json`` (written on update only)."""
    payload = load_json(RESULTS_PATH) if RESULTS_PATH.exists() else {}
    payload.update(fields)
    record_json(payload, RESULTS_PATH)


def _timed_run(workers):
    config = config_from_label(LABEL, correlation=0.5)
    start = time.perf_counter()
    result = run_replications(
        config,
        ALGORITHMS,
        num_runs=NUM_RUNS,
        seed=0,
        collect_delays=True,
        keep_observations=True,
        workers=workers,
    )
    return result, time.perf_counter() - start


def test_bench_parallel_determinism_and_speedup(record):
    serial, serial_seconds = _timed_run(workers=1)
    parallel, parallel_seconds = _timed_run(workers=4)

    for name in ALGORITHMS:
        for obs_s, obs_p in zip(serial.observations[name], parallel.observations[name]):
            assert obs_s.pqos == obs_p.pqos
            assert obs_s.utilization == obs_p.utilization
            np.testing.assert_array_equal(obs_s.delays, obs_p.delays)

    speedup = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    lines = [
        f"Parallel replication engine on {LABEL} ({NUM_RUNS} runs, {ALGORITHMS}):",
        f"  serial (workers=1):   {serial_seconds:8.2f} s",
        f"  pool   (workers=4):   {parallel_seconds:8.2f} s",
        f"  speedup:              {speedup:8.2f}x  ({available_cpus()} CPUs available)",
        "  per-run observations: bit-identical",
    ]
    record("parallel_speedup", "\n".join(lines))
    _record_parallel(
        {
            "pool_runs": NUM_RUNS,
            "pool_workers": 4,
            "pool_available_cpus": available_cpus(),
            "serial_seconds": serial_seconds,
            "pool_seconds": parallel_seconds,
            "pool_speedup": speedup,
        }
    )

