"""E2 — Figure 4: CDF of client→target-server delays on 30s-160z-2000c-1000cp.

The paper plots the delay CDF between 250 ms and 500 ms for the four
algorithms; GreZ-GreC dominates the other curves (more clients below every
threshold).
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.experiments.config import ExperimentConfig, run
from repro.experiments.figure4 import FIGURE4, format_figure4
from repro.io.ascii_plot import cdf_chart

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)


def test_bench_figure4(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(FIGURE4, ExperimentConfig(num_runs=NUM_RUNS, seed=0)),
        rounds=1,
        iterations=1,
    )
    chart = cdf_chart(result.cdfs, title=f"Figure 4: delay CDFs, {result.label}", y_min=0.8)
    record("figure4", format_figure4(result) + "\n\n" + chart)

    grez_grec = result.cdfs["grez-grec"]
    grez_virc = result.cdfs["grez-virc"]
    ranz_virc = result.cdfs["ranz-virc"]
    ranz_grec = result.cdfs["ranz-grec"]

    # CDFs are monotone and end at 1 (all delays are below the 500 ms cap).
    for cdf in result.cdfs.values():
        assert (np.diff(cdf.values) >= -1e-12).all()
        assert cdf.values[-1] >= 0.999

    # Figure 4 shape: the GreZ-based curves dominate the RanZ-based ones at the
    # delay bound, and GreZ-GreC is the best overall.
    assert grez_grec.at(250.0) >= grez_virc.at(250.0) - 1e-9
    assert grez_virc.at(250.0) > ranz_virc.at(250.0)
    assert grez_grec.at(250.0) > ranz_grec.at(250.0)
    # Dominance persists in the tail (interactivity for clients without QoS).
    for threshold in (300.0, 350.0, 400.0):
        assert grez_grec.at(threshold) >= ranz_virc.at(threshold) - 1e-9
