"""E8 — Baseline comparison (extension): two-phase algorithms vs related work.

Runs the paper's four configurations against the delay-oblivious load-balancing
partitioner (locally distributed cluster, refs [17, 25] of the paper) and the
nearest-server selection baseline (mirrored-architecture style, ref [16]).
"""

from __future__ import annotations

import pytest

from repro.experiments.baselines_compare import BASELINES, format_baseline_comparison
from repro.experiments.config import ExperimentConfig, run

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)


def test_bench_baseline_comparison(benchmark, record):
    comparison = benchmark.pedantic(
        lambda: run(BASELINES, ExperimentConfig(num_runs=NUM_RUNS, seed=0)),
        rounds=1,
        iterations=1,
    )
    record("baselines", format_baseline_comparison(comparison))

    solver_index = {name: i + 1 for i, name in enumerate(comparison.algorithms)}
    for row in comparison.panel("pqos"):
        label = row[0]
        grez_grec = row[solver_index["grez-grec"]]
        # The paper's algorithm beats both related-work baselines on every config.
        assert grez_grec >= row[solver_index["nearest-server"]] - 0.03, label
        assert grez_grec > row[solver_index["load-balance"]], label
        assert grez_grec > row[solver_index["ranz-virc"]], label
