"""Longitudinal dynamics benchmark: delta pipeline vs full-rebuild pipeline.

Compares the per-epoch cost of the pre-refactor churn pipeline (``rebuild``
backend + ``reexecute`` policy: rebuild the world, re-validate the instance,
re-solve every algorithm from scratch) against the incremental pipeline
(``delta`` backend + ``warm_start`` policy: delta state updates plus the
sweep-mode warm-start repair), across epoch counts and two scales:

* the paper's largest configuration (30s-160z-2000c-1000cp) with a 10 % churn
  batch, and
* 4× that population (30s-160z-8000c-4000cp, same load factor).

Historically the 4× configuration showed a ≥5× delta-pipeline advantage
because the rebuild path's per-epoch cost was dominated by the from-scratch
heuristic solves' Python placement loops.  The vectorized max-regret engine
(see ``benchmarks/test_bench_solvers.py``) removed that bottleneck for *both*
pipelines, so the end-to-end advantage now comes from what the delta backend
still avoids — the world rebuild, re-validation and carried-over state — and
saturates around 2-3× at paper scale and ~2× at 4× population.

The delta-vs-rebuild speedup is a recorded value, not a gate.  On a shared
2-vCPU host 30 quiet standalone runs read 1.32x-3.62x at paper scale
(quartiles 2.17x / 2.23x / 2.28x) and 1.34x-3.06x at 4x scale (2.01x / 2.05x
/ 2.16x), and 3 of them fell below the old 1.5x gate, so a fixed threshold
fails on timing noise.  The adopted-pQoS bound below is still asserted.

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

pytestmark = pytest.mark.benchmark

#: Epochs per timed pipeline run (scaled by REPRO_BENCH_RUNS in CI smoke).
NUM_EPOCHS = 4 * bench_runs(2)

ALGORITHMS = ["ranz-virc", "ranz-grec", "grez-virc", "grez-grec"]
CHURN = ChurnSpec(200, 200, 200)  # 10 % of the paper's largest population

PAPER_LABEL = "30s-160z-2000c-1000cp"
SCALED_LABEL = "30s-160z-8000c-4000cp"  # 4× population, same load factor

#: Pipelines under comparison: the pre-refactor full-rebuild path vs the
#: incremental delta path (plus the contact-phase-only repair for context).
PIPELINES = (
    ("reexecute", "rebuild"),
    ("incremental", "delta"),
    ("warm_start", "delta"),
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_dynamics.json"


def _time_pipeline(scenario, policy: str, backend: str, num_epochs: int):
    """Per-epoch wall time (seconds) and final adopted pQoS of one pipeline."""
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=ALGORITHMS,
        churn_spec=CHURN,
        seed=1,
        policy=policy,
        backend=backend,
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
    for policy, backend in PIPELINES:
        per_epoch, final_pqos = _time_pipeline(scenario, policy, backend, num_epochs)
        pipelines[f"{policy}+{backend}"] = {
            "per_epoch_ms": per_epoch * 1e3,
            "final_adopted_pqos": final_pqos,
        }
    rebuild_ms = pipelines["reexecute+rebuild"]["per_epoch_ms"]
    delta_ms = pipelines["warm_start+delta"]["per_epoch_ms"]
    return {
        "label": label,
        "num_epochs": num_epochs,
        "algorithms": ALGORITHMS,
        "churn": {"joins": CHURN.num_joins, "leaves": CHURN.num_leaves, "moves": CHURN.num_moves},
        "pipelines": pipelines,
        "epoch_speedup_delta_vs_rebuild": rebuild_ms / delta_ms,
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
        ["configuration", "pipeline", "ms / epoch", "final adopted pQoS"],
        rows,
        title=(
            f"Dynamics pipelines over {NUM_EPOCHS} epochs "
            f"({CHURN.num_joins}j/{CHURN.num_leaves}l/{CHURN.num_moves}m churn): "
            f"speedup {paper['epoch_speedup_delta_vs_rebuild']:.1f}x at paper scale, "
            f"{scaled['epoch_speedup_delta_vs_rebuild']:.1f}x at 4x scale"
        ),
        float_format=".2f",
    )
    record("dynamics", text)
    record_json({"configurations": results}, RESULTS_PATH)

    # The repair policies trade a little interactivity for that speed; they
    # must stay within a few points of the re-executed pQoS.
    for result in results:
        reexec = result["pipelines"]["reexecute+rebuild"]["final_adopted_pqos"]
        warm = result["pipelines"]["warm_start+delta"]["final_adopted_pqos"]
        assert warm >= reexec - 0.08


def test_bench_backend_equivalence_at_scale(record):
    """Delta and rebuild backends stream identical records at paper scale."""
    config = config_from_label(PAPER_LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=0)
    streams = {}
    for backend in ("delta", "rebuild"):
        simulator = ChurnSimulator(
            scenario=scenario,
            algorithms=["grez-grec"],
            churn_spec=CHURN,
            seed=9,
            backend=backend,
        )
        streams[backend] = simulator.run(num_epochs=2)
    assert streams["delta"] == streams["rebuild"]
