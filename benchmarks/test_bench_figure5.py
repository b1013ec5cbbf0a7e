"""E3 — Figure 5: pQoS and resource utilisation vs physical↔virtual correlation δ.

Paper settings: 20s-80z-1000c-500cp, D = 200 ms, δ swept from 0 to 1.
GreZ-based algorithms improve markedly with δ; RanZ-based ones stay flat;
GreZ-GreC's resource utilisation falls as δ grows.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, run
from repro.experiments.figure5 import FIGURE5, format_figure5

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)
CORRELATIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def test_bench_figure5(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(
            replace(FIGURE5, sweep=CORRELATIONS), ExperimentConfig(num_runs=NUM_RUNS, seed=0)
        ),
        rounds=1,
        iterations=1,
    )
    record("figure5", format_figure5(result))

    grez_virc = result.pqos_series("grez-virc")
    grez_grec = result.pqos_series("grez-grec")
    ranz_virc = result.pqos_series("ranz-virc")

    # Figure 5(a) shape: delay-aware initial assignment benefits from correlation.
    assert grez_virc[-1] - grez_virc[0] > 0.05
    assert grez_grec[-1] - grez_grec[0] > -0.02
    # RanZ stays roughly flat.
    assert abs(ranz_virc[-1] - ranz_virc[0]) < 0.1
    # The GreZ gain exceeds the RanZ gain.
    assert (grez_virc[-1] - grez_virc[0]) > (ranz_virc[-1] - ranz_virc[0])
    # GreZ-GreC remains the best algorithm at every correlation value.
    for i in range(len(CORRELATIONS)):
        assert grez_grec[i] >= ranz_virc[i]

    # Figure 5(b) shape: GreZ-GreC's utilisation decreases as correlation rises.
    util_grec = [r.utilization("grez-grec") for r in result.results.values()]
    assert util_grec[-1] <= util_grec[0] + 1e-9
