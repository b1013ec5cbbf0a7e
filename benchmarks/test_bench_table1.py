"""E1 — Table 1: pQoS (resource utilisation) across the four DVE configurations.

Paper settings: four configurations from 5s-15z-200c-100cp up to
30s-160z-2000c-1000cp, correlation 0.5, D = 250 ms, four two-phase algorithms
plus the exact solver (lp_solve in the paper, HiGHS branch-and-bound here) on
the two small configurations, averaged over many runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.paper_values import PAPER_TABLE1_PQOS
from repro.experiments.config import ExperimentConfig, run
from repro.experiments.table1 import TABLE1, format_table1

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(5)


def test_bench_table1(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(
            replace(TABLE1, share_topology=True), ExperimentConfig(num_runs=NUM_RUNS, seed=0)
        ),
        rounds=1,
        iterations=1,
    )
    record("table1", format_table1(result))

    # Shape assertions mirroring the paper's Table 1.
    for label, replicated in result.results.items():
        pqos = {name: replicated.pqos(name) for name in result.algorithms}
        assert pqos["grez-grec"] >= pqos["grez-virc"] - 1e-9, label
        assert pqos["grez-virc"] > pqos["ranz-virc"], label
        assert pqos["grez-grec"] > pqos["ranz-grec"], label
        util = {name: replicated.utilization(name) for name in result.algorithms}
        assert util["grez-virc"] <= util["grez-grec"] + 1e-9, label
        assert util["ranz-grec"] >= util["ranz-virc"] - 1e-9, label
        if "optimal" in replicated.summaries:
            assert replicated.pqos("optimal") >= pqos["grez-grec"] - 0.03, label

    # The measured Table 1 covers every configuration the paper reports.
    assert set(result.results) == set(PAPER_TABLE1_PQOS)
