"""E6 — Table 4: pQoS (resource utilisation) with imperfect delay estimates.

Paper settings: 20s-80z-1000c-500cp with a multiplicative error factor applied
to all delays before the algorithms run (e = 1.2 emulating King, e = 2.0
emulating IDMaps); evaluation uses the true delays.  GreZ-GreC degrades only
slightly at e = 1.2; at e = 2 GreZ-VirC becomes competitive; both stay far
above the RanZ variants.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, run
from repro.experiments.table4 import TABLE4, format_table4

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)


def test_bench_table4(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(TABLE4, ExperimentConfig(num_runs=NUM_RUNS, seed=0)),
        rounds=1,
        iterations=1,
    )
    record("table4", format_table4(result))

    king = result.results[1.2]
    idmaps = result.results[2.0]

    # Larger estimation error does not improve the delay-aware heuristics.
    assert idmaps.pqos("grez-grec") <= king.pqos("grez-grec") + 0.02
    # Both delay-aware algorithms stay clearly above the delay-oblivious ones
    # even with the coarsest estimator (the paper's headline robustness claim).
    for factor_result in (king, idmaps):
        assert factor_result.pqos("grez-grec") > factor_result.pqos("ranz-virc")
        assert factor_result.pqos("grez-virc") > factor_result.pqos("ranz-virc")
    # GreZ-VirC is insensitive to the error in the refined phase, so at e = 2 it
    # is at least competitive with GreZ-GreC (paper: slightly better).
    assert idmaps.pqos("grez-virc") >= idmaps.pqos("grez-grec") - 0.05
    # VirC keeps the lowest resource utilisation.
    assert idmaps.utilization("grez-virc") <= idmaps.utilization("grez-grec") + 1e-9
