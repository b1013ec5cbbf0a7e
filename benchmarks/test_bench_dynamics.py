"""Longitudinal dynamics benchmark: re-execution vs the repair policies.

Compares the per-epoch cost of re-solving every algorithm from scratch each
epoch (``reexecute`` policy) against the two repair policies
(``incremental``: contact phase only; ``warm_start``: the sweep-mode
warm-start repair), all on the engine's delta world advance, across epoch
counts and two scales:

* the paper's largest configuration (30s-160z-2000c-1000cp) with a 10 % churn
  batch, and
* 4× that population (30s-160z-8000c-4000cp, same load factor).

The warm-start-vs-re-execute speedup is a recorded value, not a gate: timing
ratios on a shared host vary by tens of percent between quiet runs.  The
adopted-pQoS bound below is asserted: the repair policies may trade only a
few points of interactivity for their speed.

Machine-readable results (per-epoch milliseconds, speedups, adopted pQoS) are
written to ``BENCH_dynamics.json`` at the repository root with
``REPRO_BENCH_UPDATE=1`` so the perf trajectory of the pipeline can be tracked
across commits; CI uploads the file as a workflow artifact.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.io.tables import format_table
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json
from tests.reference.world_rebuild import checked_advances

pytestmark = pytest.mark.benchmark

#: Epochs per timed pipeline run (scaled by REPRO_BENCH_RUNS in CI smoke).
NUM_EPOCHS = 4 * bench_runs(2)

ALGORITHMS = ["ranz-virc", "ranz-grec", "grez-virc", "grez-grec"]
CHURN = ChurnSpec(200, 200, 200)  # 10 % of the paper's largest population

PAPER_LABEL = "30s-160z-2000c-1000cp"
SCALED_LABEL = "30s-160z-8000c-4000cp"  # 4× population, same load factor

#: Policies under comparison: re-execution from scratch vs the warm-start
#: repair (plus the contact-phase-only repair for context).
PIPELINES = ("reexecute", "incremental", "warm_start")

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_dynamics.json"


def _time_pipeline(scenario, policy: str, num_epochs: int):
    """Per-epoch wall time (seconds) and final adopted pQoS of one pipeline."""
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=ALGORITHMS,
        churn_spec=CHURN,
        seed=1,
        policy=policy,
    )
    stream = simulator.stream(num_epochs)
    start = time.perf_counter()
    records = list(stream)
    elapsed = time.perf_counter() - start
    return elapsed / num_epochs, records[-1].pqos_adopted


def _measure_label(label: str, num_epochs: int) -> dict:
    """Benchmark every pipeline on one configuration."""
    config = config_from_label(label, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    pipelines = {}
    for policy in PIPELINES:
        per_epoch, final_pqos = _time_pipeline(scenario, policy, num_epochs)
        pipelines[policy] = {
            "per_epoch_ms": per_epoch * 1e3,
            "final_adopted_pqos": final_pqos,
        }
    reexec_ms = pipelines["reexecute"]["per_epoch_ms"]
    warm_ms = pipelines["warm_start"]["per_epoch_ms"]
    return {
        "label": label,
        "num_epochs": num_epochs,
        "algorithms": ALGORITHMS,
        "churn": {"joins": CHURN.num_joins, "leaves": CHURN.num_leaves, "moves": CHURN.num_moves},
        "pipelines": pipelines,
        "epoch_speedup_warm_start_vs_reexecute": reexec_ms / warm_ms,
    }


def test_bench_dynamics(benchmark, record):
    results = benchmark.pedantic(
        lambda: [
            _measure_label(PAPER_LABEL, NUM_EPOCHS),
            _measure_label(SCALED_LABEL, max(4, NUM_EPOCHS // 2)),
        ],
        rounds=1,
        iterations=1,
    )
    paper, scaled = results

    rows = []
    for result in results:
        for name, data in result["pipelines"].items():
            rows.append(
                [
                    result["label"],
                    name,
                    data["per_epoch_ms"],
                    data["final_adopted_pqos"],
                ]
            )
    text = format_table(
        ["configuration", "policy", "ms / epoch", "final adopted pQoS"],
        rows,
        title=(
            f"Dynamics pipelines over {NUM_EPOCHS} epochs "
            f"({CHURN.num_joins}j/{CHURN.num_leaves}l/{CHURN.num_moves}m churn): "
            f"warm start {paper['epoch_speedup_warm_start_vs_reexecute']:.1f}x faster "
            f"than re-execution at paper scale, "
            f"{scaled['epoch_speedup_warm_start_vs_reexecute']:.1f}x at 4x scale"
        ),
        float_format=".2f",
    )
    record("dynamics", text)
    record_json({"configurations": results}, RESULTS_PATH)

    # The repair policies trade a little interactivity for that speed; they
    # must stay within a few points of the re-executed pQoS.
    for result in results:
        reexec = result["pipelines"]["reexecute"]["final_adopted_pqos"]
        warm = result["pipelines"]["warm_start"]["final_adopted_pqos"]
        assert warm >= reexec - 0.08


def test_bench_world_advance_matches_rebuild_oracle_at_scale(record):
    """Every world advance at paper scale equals a full rebuild, bit for bit."""
    config = config_from_label(PAPER_LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    with checked_advances() as checked:
        ChurnSimulator(
            scenario=scenario,
            algorithms=["grez-grec"],
            churn_spec=CHURN,
            seed=9,
        ).run(num_epochs=2)
    assert checked == [True, True]
