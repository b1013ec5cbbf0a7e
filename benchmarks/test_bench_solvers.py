"""Solver-engine benchmark: loop vs vectorized max-regret placement backends.

Times the max-regret placement stages of GreZ (zones → servers) and GreC
(needy clients → contact servers) — the inner loops that dominate a
re-execution epoch once the delta pipeline removed the state-rebuild cost —
on the paper's largest configuration and on 4× its population, for both the
static mode (the paper's pseudocode) and the dynamic-regret mode
(``recompute=True``, ablation E7).

Machine-readable results (per-solve milliseconds, speedups, item counts) are
written to ``BENCH_solvers.json`` at the repository root so the solver perf
trajectory is tracked alongside the dynamics pipeline's; CI uploads the file
as a workflow artifact.  The backends are bit-identical, which the benchmark
re-asserts on every timed input.

Expected shape: at the paper's own scale (160 zones, ~100 needy clients) the
batched engine's fixed per-round overhead makes it a wash or slightly slower
— the loop is fine there.  At 4× population (~1250 needy clients) the
vectorized backend is ≥3× faster for static placement and ≥5× for the
dynamic-regret mode, whose loop spec re-partitions every remaining column
after every placement.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core.assignment import zone_server_loads
from repro.core.costs import initial_cost_matrix, refined_cost_columns
from repro.core.grez import assign_zones_greedy
from repro.core.problem import CAPInstance
from repro.core.regret import BACKENDS, max_regret_assign
from repro.core.registry import solve as registry_solve
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json

pytestmark = pytest.mark.benchmark

#: Timed repetitions per (stage, backend, mode); min is reported.
NUM_REPS = bench_runs(3)

PAPER_LABEL = "30s-160z-2000c-1000cp"
SCALED_LABEL = "30s-160z-8000c-4000cp"  # 4× population, same load factor

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_solvers.json"


def _solver_inputs(label: str):
    """The two max-regret placement problems of a GreZ-GreC solve on ``label``."""
    config = config_from_label(label, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    instance = CAPInstance.from_scenario(scenario)
    zones = assign_zones_greedy(instance)
    targets = zones.zone_to_server[instance.client_zones]
    direct = instance.client_server_delays[np.arange(instance.num_clients), targets]
    helped = np.flatnonzero(direct > instance.delay_bound)
    return {
        "instance": instance,
        "zone_stage": {
            "desirability": -initial_cost_matrix(instance),
            "demands": instance.zone_demands(),
            "capacities": instance.server_capacities,
            "initial_loads": None,
            "fallback": "least_loaded",
        },
        "client_stage": {
            "desirability": -refined_cost_columns(instance, zones.zone_to_server, helped),
            "demands": 2.0 * instance.client_demands[helped],
            "capacities": instance.server_capacities,
            "initial_loads": zone_server_loads(instance, zones.zone_to_server),
            "fallback": "skip",
        },
        "num_helped": int(helped.size),
    }


def _run_stages(inputs, backend: str, recompute: bool):
    """Both placement stages with one backend; returns (elapsed_s, assignments)."""
    start = time.perf_counter()
    zone_result = max_regret_assign(
        recompute=recompute, backend=backend, **inputs["zone_stage"]
    )
    client_result = max_regret_assign(
        recompute=recompute, backend=backend, **inputs["client_stage"]
    )
    elapsed = time.perf_counter() - start
    return elapsed, (zone_result, client_result)


def _measure_label(label: str) -> dict:
    """Benchmark both modes and both backends on one configuration."""
    inputs = _solver_inputs(label)
    modes = {}
    for recompute, mode in ((False, "static"), (True, "dynamic")):
        timings = {}
        assignments = {}
        for backend in BACKENDS:
            # The dynamic loop spec is O(n² · m log m); one rep is plenty.
            reps = 1 if (recompute and backend == "loop") else NUM_REPS
            best = float("inf")
            for _ in range(reps):
                elapsed, results = _run_stages(inputs, backend, recompute)
                best = min(best, elapsed)
            timings[backend] = best
            assignments[backend] = results
        # Bit-identical placements are the contract that makes the speedup a
        # pure perf statement; assert it on the timed inputs themselves.
        for loop_result, vec_result in zip(assignments["loop"], assignments["vectorized"]):
            np.testing.assert_array_equal(
                loop_result.item_to_server, vec_result.item_to_server
            )
            np.testing.assert_array_equal(loop_result.loads, vec_result.loads)
            assert loop_result.capacity_exceeded == vec_result.capacity_exceeded
        modes[mode] = {
            "loop_ms": timings["loop"] * 1e3,
            "vectorized_ms": timings["vectorized"] * 1e3,
            "speedup": timings["loop"] / timings["vectorized"],
        }

    # End-to-end context: a full grez-grec solve per backend (includes the
    # cost matrices and the phase plumbing both backends share).
    instance = inputs["instance"]
    solve_ms = {}
    for backend in BACKENDS:
        best = float("inf")
        for _ in range(NUM_REPS):
            start = time.perf_counter()
            registry_solve(instance, "grez-grec", seed=0, backend=backend)
            best = min(best, time.perf_counter() - start)
        solve_ms[backend] = best * 1e3

    return {
        "label": label,
        "num_clients": instance.num_clients,
        "num_zones": instance.num_zones,
        "num_helped_clients": inputs["num_helped"],
        "modes": modes,
        "grez_grec_solve_ms": solve_ms,
    }


def test_bench_solvers(benchmark, record):
    results = benchmark.pedantic(
        lambda: [_measure_label(PAPER_LABEL), _measure_label(SCALED_LABEL)],
        rounds=1,
        iterations=1,
    )
    paper, scaled = results

    rows = []
    for result in results:
        for mode, data in result["modes"].items():
            rows.append(
                [
                    result["label"],
                    mode,
                    data["loop_ms"],
                    data["vectorized_ms"],
                    data["speedup"],
                ]
            )
    text = format_table(
        ["configuration", "regret mode", "loop (ms)", "vectorized (ms)", "speedup"],
        rows,
        title=(
            "Max-regret placement backends (GreZ + GreC stages): "
            f"{scaled['modes']['static']['speedup']:.1f}x static / "
            f"{scaled['modes']['dynamic']['speedup']:.1f}x dynamic at 4x population"
        ),
        float_format=".2f",
    )
    record("solvers", text)
    record_json({"configurations": results}, RESULTS_PATH)

    # At 4× the paper's population the batched engine must clearly win: ≥3×
    # for the static mode and ≥5× for dynamic regret, whose loop spec
    # re-partitions the whole remaining matrix after every placement.  (At
    # the paper's own scale the two are intentionally allowed to be a wash —
    # the fixed per-round overhead only amortises with enough items.)
    assert scaled["modes"]["static"]["speedup"] >= 3.0
    assert scaled["modes"]["dynamic"]["speedup"] >= 5.0
    # The equivalence asserts inside _measure_label already proved both modes
    # bit-identical on every timed input; keep the paper-scale result used so
    # a regression there cannot be silently dropped from the artifact.
    assert paper["modes"]["static"]["loop_ms"] > 0.0
