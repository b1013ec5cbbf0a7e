"""E9 — Runtime scaling: heuristics vs the exact MILP across configuration sizes.

The paper reports all heuristics finishing in under a second on every
configuration, while lp_solve needs 0.2 s / 41.5 s on the two small
configurations and does not finish within 10 hours on the larger two.  Modern
HiGHS branch-and-bound is much faster than 2006-era lp_solve, so the absolute
MILP numbers differ, but the qualitative gap (heuristics are orders of
magnitude cheaper and scale to the large configurations) must hold.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import (
    PAPER_SMALL_LABELS,
    PAPER_TABLE1_LABELS,
    ExperimentConfig,
    run,
)
from repro.experiments.runtime import RUNTIME, format_runtime

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(2)


def test_bench_runtime(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(
            replace(RUNTIME, exact_labels=PAPER_SMALL_LABELS),
            ExperimentConfig(num_runs=NUM_RUNS, seed=0),
        ),
        rounds=1,
        iterations=1,
    )
    record("runtime", format_runtime(result))

    for label in PAPER_TABLE1_LABELS:
        runtimes = result.runtimes[label]
        # Section 4.2: every proposed heuristic takes well under a second.
        for solver in ("ranz-virc", "ranz-grec", "grez-virc", "grez-grec"):
            assert runtimes[solver] < 1.0, (label, solver)

    # The exact solver is far more expensive than the heuristics on the
    # configurations where it runs at all.
    for label in PAPER_SMALL_LABELS:
        runtimes = result.runtimes[label]
        assert runtimes["optimal"] > runtimes["grez-grec"]

    # The heuristics' cost grows modestly with instance size (no blow-up from
    # the smallest to the largest configuration).
    small = result.runtimes[PAPER_TABLE1_LABELS[0]]["grez-grec"]
    large = result.runtimes[PAPER_TABLE1_LABELS[-1]]["grez-grec"]
    assert large < max(small, 1e-4) * 2000
