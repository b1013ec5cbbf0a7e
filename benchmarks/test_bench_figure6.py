"""E4 — Figure 6: pQoS and resource utilisation vs client distribution type.

Paper settings: 20s-80z-1000c-500cp, distribution types 0-3 (Table 2: clusters
in the physical and/or virtual world, hot zones 10× as popular).  Virtual-world
clustering inflates bandwidth utilisation strongly; physical-world clustering
has little effect; GreZ-GreC stays the best algorithm throughout.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, run
from repro.experiments.figure6 import FIGURE6, format_figure6

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)


def test_bench_figure6(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(FIGURE6, ExperimentConfig(num_runs=NUM_RUNS, seed=0)),
        rounds=1,
        iterations=1,
    )
    record("figure6", format_figure6(result))

    # GreZ-GreC is the best algorithm for every distribution type (Fig. 6a).
    for i, _dist_type in enumerate(result.keys):
        grec = result.pqos_series("grez-grec")[i]
        for other in ("ranz-virc", "ranz-grec", "grez-virc"):
            assert grec >= result.pqos_series(other)[i] - 0.03

    # Virtual-world clustering (types 2, 3) raises utilisation well above the
    # uniform / physically-clustered cases (types 0, 1) — Fig. 6b.
    util = {t: r.utilization("grez-grec") for t, r in result.results.items()}
    assert min(util[2], util[3]) > max(util[0], util[1])

    # Virtual-world clustering is the dominant driver of bandwidth consumption:
    # adding clusters in the virtual world (type 0 → 2) costs far more than
    # adding clusters in the physical world only (type 0 → 1).
    assert (util[2] - util[0]) > (util[1] - util[0])
