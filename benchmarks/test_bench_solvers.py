"""Solver-engine benchmark: the max-regret engine vs its per-item loop oracle.

Times the max-regret placement stages of GreZ (zones → servers) and GreC
(needy clients → contact servers) — the inner loops that dominate a
re-execution epoch once the delta pipeline removed the state-rebuild cost —
on the paper's largest configuration and on 4× its population, for both the
static mode (the paper's pseudocode) and the dynamic-regret mode
(``recompute=True``, ablation E7).

Machine-readable results (per-solve milliseconds, speedups, item counts) are
written to ``BENCH_solvers.json`` at the repository root so the solver perf
trajectory is tracked alongside the dynamics pipeline's; CI uploads the file
as a workflow artifact.  The loop is the test-only oracle
(``tests/reference/regret_loop.py``, reported under ``loop``); the engine is
reported under ``vectorized``.  The two are bit-identical, which the
benchmark re-asserts on every timed input.

Expected shape (static placement, min of 40 runs, 2-vCPU x86-64 host): the
engine is level with the loop at small scale (0.45 ms vs 0.43 ms on
20s-80z-1000c), already ahead at the paper's largest scale (0.93 ms vs
1.24 ms on 30s-160z-2000c, ~100 needy clients) and ~15× ahead at 4×
population (1.34 ms vs 19.7 ms, ~1250 needy clients).  The gates below ask
for ≥3× static and ≥5× dynamic-regret at 4× population; the dynamic loop
re-partitions every remaining column after every placement.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
import repro.core.grec as grec
import repro.core.grez as grez
from repro.core.assignment import zone_server_loads
from repro.core.costs import initial_cost_matrix, refined_cost_rows
from repro.core.problem import CAPInstance
from repro.core.regret import max_regret_assign
from repro.core.registry import solve as registry_solve
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json
from tests.reference.regret_loop import max_regret_assign_loop

pytestmark = pytest.mark.benchmark

#: The timed placement implementations, by their ``BENCH_solvers.json`` key.
PLACEMENTS = {"vectorized": max_regret_assign, "loop": max_regret_assign_loop}

#: Timed repetitions per (stage, implementation, mode); min is reported.
NUM_REPS = bench_runs(3)

PAPER_LABEL = "30s-160z-2000c-1000cp"
SCALED_LABEL = "30s-160z-8000c-4000cp"  # 4× population, same load factor

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_solvers.json"


def _solver_inputs(label: str):
    """The two max-regret placement problems of a GreZ-GreC solve on ``label``."""
    config = config_from_label(label, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    instance = CAPInstance.from_scenario(scenario)
    zones = grez.assign_zones_greedy(instance)
    targets = zones.zone_to_server[instance.client_zones]
    direct = instance.delays_to(targets)
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
            "desirability": -refined_cost_rows(instance, zones.zone_to_server, helped).T,
            "demands": 2.0 * instance.client_demands[helped],
            "capacities": instance.server_capacities,
            "initial_loads": zone_server_loads(instance, zones.zone_to_server),
            "fallback": "skip",
        },
        "num_helped": int(helped.size),
    }


def _run_stages(inputs, backend: str, recompute: bool):
    """Both placement stages with one implementation; returns (elapsed_s, assignments)."""
    place = PLACEMENTS[backend]
    start = time.perf_counter()
    zone_result = place(recompute=recompute, **inputs["zone_stage"])
    client_result = place(recompute=recompute, **inputs["client_stage"])
    elapsed = time.perf_counter() - start
    return elapsed, (zone_result, client_result)


def _best_solve_ms(instance) -> float:
    """Fastest of ``NUM_REPS`` full grez-grec solves, in milliseconds."""
    best = float("inf")
    for _ in range(NUM_REPS):
        start = time.perf_counter()
        registry_solve(instance, "grez-grec", seed=0)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _measure_label(label: str) -> dict:
    """Benchmark both modes on both implementations on one configuration."""
    inputs = _solver_inputs(label)
    modes = {}
    for recompute, mode in ((False, "static"), (True, "dynamic")):
        timings = {}
        assignments = {}
        for backend in PLACEMENTS:
            # The dynamic loop oracle is O(n² · m log m); one rep is plenty.
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

    # End-to-end context: a full grez-grec solve with each implementation
    # (includes the cost matrices and the phase plumbing both share).  The
    # loop runs in place of the engine names GreZ and GreC import; this
    # dense world never takes GreC's candidate-list path.
    instance = inputs["instance"]
    solve_ms = {"vectorized": _best_solve_ms(instance)}
    with pytest.MonkeyPatch.context() as patch:
        for module in (grez, grec):
            patch.setattr(module, "max_regret_assign", max_regret_assign_loop)
        solve_ms["loop"] = _best_solve_ms(instance)

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
            "Max-regret placement, engine vs loop oracle (GreZ + GreC stages): "
            f"{scaled['modes']['static']['speedup']:.1f}x static / "
            f"{scaled['modes']['dynamic']['speedup']:.1f}x dynamic at 4x population"
        ),
        float_format=".2f",
    )
    record("solvers", text)
    record_json({"configurations": results}, RESULTS_PATH)

    # At 4× the paper's population the engine must clearly win: ≥3× for the
    # static mode and ≥5× for dynamic regret, whose loop re-partitions the
    # whole remaining matrix after every placement.  (The paper's own scale
    # is not gated: with ~100 needy clients the margin is too small to hold
    # on every host.)
    assert scaled["modes"]["static"]["speedup"] >= 3.0
    assert scaled["modes"]["dynamic"]["speedup"] >= 5.0
    # The equivalence asserts inside _measure_label already proved both modes
    # bit-identical on every timed input; keep the paper-scale result used so
    # a regression there cannot be silently dropped from the artifact.
    assert paper["modes"]["static"]["loop_ms"] > 0.0
