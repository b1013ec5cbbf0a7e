"""Scale-and-memory ladder: dense vs sparse delay backend up to 10^5..10^6 clients.

A (clients x servers) float64 delay matrix is O(k·m) and caps worlds at a
few thousand clients; both delay backends
(:mod:`repro.topology.delay_backends`) hold a compact matrix of
O(clients + zones*K + nodes*m) state instead — ``dense`` with every server a
candidate, ``sparse`` with the top K per zone.  This ladder measures, per
backend and client count:

* build + solve latency and per-epoch churn latency (2 epochs, 1 % churn,
  re-execute policy — the most expensive repair schedule), and
* peak traced memory (tracemalloc, which tracks numpy buffers) plus the
  resident delay-state bytes of the instance.

The solve latency is the fastest of :data:`SOLVE_REPEATS` from-scratch solves
timed with tracemalloc off (it slows allocation-heavy code several-fold) and
the garbage collector off, as ``timeit`` does.  The ladder runs in a child
interpreter with BLAS pinned to one thread, as the ``bench`` ledger's rounds
do: on a loaded two-CPU host a multi-threaded BLAS slowed the same solve about
sixfold, and the 50k and 100k rungs did not slow alike, so the 100k/50k ratio
check read the host's load rather than the solver's scaling.

The memory gate compares each sparse rung's peak with ``8·k·m`` bytes, the
(clients x servers) float64 matrix that the compact form avoids: the ladder
asserts the sparse backend stays an order of magnitude below it and that
its resident delay state is O(clients + zones*K + nodes*m) with a small
constant.  The dense rungs are measured on the small rungs as the pQoS
reference of the candidate restriction; their peak no longer grows with
the client count like a (k x m) array, so it is no memory reference.

Results go to ``BENCH_scale.json`` at the repository root.  CI's scale-guard
job runs the smoke rung (``REPRO_BENCH_RUNS=1``: 50k clients) as a blocking
check; the full ladder reaches 100k and, with ``REPRO_BENCH_SCALE_MAX``, 1M.

The ladder's configurations are adequately provisioned (capacity ~1.3x total
demand), unlike the paper's oversubscribed Table 1 labels: when capacity is
scarce the max-regret fallback places zones with no regard for delay, which
dense absorbs (pQoS only counts delay misses) but turns the sparse backend's
candidate restriction into sentinel-delay assignments.  Provisioning is the
realistic operating point for the million-client worlds this ladder models.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.topology.delay_backends import CompactDelayMatrix
from repro.world import build_scenario

from benchmarks.conftest import bench_runs, record_json

pytestmark = pytest.mark.benchmark

#: Smoke mode (CI: REPRO_BENCH_RUNS=1) stops the ladder at 50k clients.
FULL = bench_runs(2) > 1

NUM_SERVERS = 500
NUM_ZONES = 2000
#: Capacity per client (Mbps); mean client demand is ~1.04 Mbps, so this is
#: ~25 % headroom — see the module docstring.
CAPACITY_PER_CLIENT = 1.3
NUM_EPOCHS = 2
CHURN_FRACTION = 0.01

DENSE_RUNGS = (10_000, 20_000) if FULL else (10_000,)
_max_compact = int(os.environ.get("REPRO_BENCH_SCALE_MAX", "0") or 0)
if not _max_compact:
    _max_compact = 100_000 if FULL else 50_000
COMPACT_RUNGS = tuple(k for k in (10_000, 50_000, 100_000, 1_000_000) if k <= _max_compact)
#: Minimum advantage at the ladder top of the (clients x servers) float64
#: matrix's bytes over the measured sparse peak.
MIN_MEMORY_RATIO = 10.0 if FULL else 5.0
#: Per-zone candidate budget of the sparse backend at ladder scale.
SPARSE_TOP_K = 64
#: From-scratch solves timed per rung; the fastest is reported.
SOLVE_REPEATS = 5
#: Wall-clock limit of the child interpreter that runs the ladder.
CHILD_TIMEOUT_S = 1800

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "BENCH_scale.json"


def _label(num_clients: int) -> str:
    capacity = int(num_clients * CAPACITY_PER_CLIENT)
    return f"{NUM_SERVERS}s-{NUM_ZONES}z-{num_clients}c-{capacity}cp"


def _solve_seconds(config) -> float:
    """Fastest of :data:`SOLVE_REPEATS` untraced from-scratch solves of ``config``.

    Each repeat builds its own scenario: the first solve fills caches that the
    scenario keeps, so a second solve on it would not start from scratch.
    """
    times = []
    for _ in range(SOLVE_REPEATS):
        instance = CAPInstance.from_scenario(build_scenario(config, seed=0))
        gc.disable()
        try:
            start = time.perf_counter()
            registry_solve(instance, "grez-grec")
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return min(times)


def _measure_rung(backend: str, num_clients: int) -> dict:
    """Build, solve and churn one rung under tracemalloc, time its solve; return its record."""
    config = config_from_label(_label(num_clients)).with_updates(
        delay_backend=backend, sparse_top_k=SPARSE_TOP_K
    )
    tracemalloc.start()
    start = time.perf_counter()
    scenario = build_scenario(config, seed=0)
    instance = CAPInstance.from_scenario(scenario)
    build_seconds = time.perf_counter() - start

    assignment = registry_solve(instance, "grez-grec")

    churn = int(CHURN_FRACTION * num_clients)
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=ChurnSpec(num_joins=churn, num_leaves=churn, num_moves=churn),
        seed=1,
    )
    session = simulator.session(NUM_EPOCHS)
    start = time.perf_counter()
    while not session.done:
        session.run_epoch()
    epoch_seconds = (time.perf_counter() - start) / NUM_EPOCHS
    # Churn must advance the compact matrix without widening its candidates.
    delays = session.state.scenario.client_server_delays
    assert isinstance(delays, CompactDelayMatrix)
    assert delays.zone_candidates.shape == instance.client_server_delays.zone_candidates.shape

    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    solve_seconds = _solve_seconds(config)

    delays = instance.client_server_delays
    state_bytes = delays.nbytes
    return {
        "backend": backend,
        "num_clients": num_clients,
        "label": config.label,
        "build_seconds": build_seconds,
        "solve_seconds": solve_seconds,
        "epoch_seconds": epoch_seconds,
        "peak_mb": peak / 1e6,
        "delay_state_mb": state_bytes / 1e6,
        "pqos": assignment.pqos(instance),
    }


def _measure() -> dict:
    results: dict = {
        "dense": [_measure_rung("dense", num_clients) for num_clients in DENSE_RUNGS],
        "sparse": [_measure_rung("sparse", num_clients) for num_clients in COMPACT_RUNGS],
    }
    for rung in results["sparse"]:
        # The (clients x servers) float64 matrix the compact form avoids.
        rung["dense_matrix_mb"] = 8 * rung["num_clients"] * NUM_SERVERS / 1e6
        rung["memory_ratio"] = rung["dense_matrix_mb"] / rung["peak_mb"]
    return results


def _measure_in_child() -> dict:
    """:func:`_measure` in a fresh interpreter with BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = "import json, benchmarks.test_bench_scale as m; print(json.dumps(m._measure()))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bench_scale(benchmark, record):
    results = benchmark.pedantic(_measure_in_child, rounds=1, iterations=1)

    rows = []
    for backend in ("dense", "sparse"):
        for rung in results[backend]:
            rows.append(
                [
                    backend,
                    f"{rung['num_clients']:,}",
                    rung["solve_seconds"],
                    rung["epoch_seconds"],
                    rung["peak_mb"],
                    rung["delay_state_mb"],
                    rung.get("memory_ratio", 1.0),
                    rung["pqos"],
                ]
            )
    text = format_table(
        [
            "backend",
            "clients",
            "solve (s)",
            "s/epoch",
            "peak MB",
            "state MB",
            "vs dense",
            "pQoS",
        ],
        rows,
        title=(
            f"Delay-backend scale ladder ({NUM_SERVERS} servers, {NUM_ZONES} zones, "
            f"{NUM_EPOCHS} churn epochs/rung; 'vs dense' = (clients x servers) float64 "
            "matrix / measured peak)"
        ),
        float_format=".2f",
    )
    record("scale", text)
    record_json(
        {
            "num_servers": NUM_SERVERS,
            "num_zones": NUM_ZONES,
            "capacity_per_client_mbps": CAPACITY_PER_CLIENT,
            "num_epochs": NUM_EPOCHS,
            "churn_fraction": CHURN_FRACTION,
            "sparse_top_k": SPARSE_TOP_K,
            "full_ladder": FULL,
            "min_memory_ratio": MIN_MEMORY_RATIO,
            **results,
        },
        RESULTS_PATH,
    )

    top = COMPACT_RUNGS[-1]
    sparse = {rung["num_clients"]: rung for rung in results["sparse"]}
    # The scale-and-memory guard: at the ladder top the sparse backend must
    # undercut a (clients x servers) float64 matrix by MIN_MEMORY_RATIO.
    assert sparse[top]["memory_ratio"] >= MIN_MEMORY_RATIO, sparse[top]
    # O(clients + zones*K + nodes*m) resident delay state, small constant:
    # 8-byte words per unit with room for every index/candidate array.
    budget_words = 4 * top + 2 * NUM_ZONES * SPARSE_TOP_K + 2 * 500 * NUM_SERVERS
    assert sparse[top]["delay_state_mb"] * 1e6 <= 8 * budget_words, sparse[top]
    # The candidate restriction must stay usable: within 0.15 pQoS of dense
    # (every server a candidate) on the shared small rung, and
    # non-degenerate at the top.
    dense_small = results["dense"][0]
    assert abs(sparse[10_000]["pqos"] - dense_small["pqos"]) <= 0.15
    assert sparse[top]["pqos"] >= 0.80, sparse[top]

    # Churn-proportional solves: doubling the population from 50k to 100k must
    # not super-linearise the sparse from-scratch solve (the 100k rung used to
    # pay a superlinear stale-re-evaluation term inside the placement engine).
    if FULL and 100_000 in COMPACT_RUNGS:
        ratio = sparse[100_000]["solve_seconds"] / sparse[50_000]["solve_seconds"]
        assert ratio <= 3.0, (ratio, sparse[100_000], sparse[50_000])
