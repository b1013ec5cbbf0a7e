"""E7 — Ablation (extension): design-choice decomposition of the greedy heuristics.

Compares the paper's four compositions, the dynamic-regret variant of
GreZ-GreC, and the related-work style baselines on the default configuration,
isolating how much each ingredient (delay awareness per phase, regret
recomputation) contributes.
"""

from __future__ import annotations

import pytest

from repro.experiments.ablation import ABLATION, format_ablation
from repro.experiments.config import ExperimentConfig, run

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)


def test_bench_ablation(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(ABLATION, ExperimentConfig(num_runs=NUM_RUNS, seed=0)),
        rounds=1,
        iterations=1,
    )
    record("ablation", format_ablation(result))

    (replicated,) = result.results.values()
    pqos = {name: replicated.pqos(name) for name in result.algorithms}
    runtime_ms = {
        name: summary.runtime_seconds.mean * 1000.0
        for name, summary in replicated.summaries.items()
    }

    # Delay awareness in the initial phase is the single largest contributor.
    assert pqos["grez-virc"] > pqos["ranz-virc"]
    assert pqos["grez-virc"] > pqos["load-balance"]
    # The refined phase adds on top of GreZ, never subtracts.
    assert pqos["grez-grec"] >= pqos["grez-virc"] - 1e-9
    # Regret recomputation is a refinement, not a regression.
    assert pqos["grez-grec-dynamic"] >= pqos["grez-grec"] - 0.03
    # The nearest-server related-work baseline is delay-aware, so it beats the
    # delay-oblivious ones but not the two-phase greedy.
    assert pqos["nearest-server"] > pqos["load-balance"]
    assert pqos["grez-grec"] >= pqos["nearest-server"] - 0.03
    # All heuristics stay in interactive (sub-second) territory.
    assert all(value < 1000.0 for value in runtime_ms.values())
