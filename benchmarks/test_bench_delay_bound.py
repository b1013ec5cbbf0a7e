"""E10 — Delay-bound sensitivity (extension): pQoS and utilisation vs D.

Sweeps the interactivity bound from twitch-game (100 ms) to RTS-grade (500 ms)
requirements on the paper's default configuration.  The sweep shows where the
refined phase (GreC) pays off: at tight bounds the inter-server mesh rescues a
meaningful fraction of clients, while at loose bounds GreZ-VirC already serves
everyone and the extra forwarding bandwidth buys nothing.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig, run
from repro.experiments.delay_bound import DELAY_BOUND, format_delay_bound
from repro.io.ascii_plot import line_chart

from benchmarks.conftest import bench_runs

pytestmark = pytest.mark.benchmark

NUM_RUNS = bench_runs(3)


def test_bench_delay_bound(benchmark, record):
    result = benchmark.pedantic(
        lambda: run(DELAY_BOUND, ExperimentConfig(num_runs=NUM_RUNS, seed=0)),
        rounds=1,
        iterations=1,
    )
    chart = line_chart(
        result.keys,
        {name: result.pqos_series(name) for name in result.algorithms},
        title="pQoS vs delay bound D (ms)",
        x_label="delay bound (ms)",
        y_label="pQoS",
        y_min=0.0,
        y_max=1.0,
    )
    record("delay_bound", format_delay_bound(result) + "\n\n" + chart)

    # pQoS is monotone in D for every algorithm, and everyone qualifies at the
    # 500 ms RTT cap.
    for algorithm in result.algorithms:
        series = result.pqos_series(algorithm)
        assert series == sorted(series), algorithm
        assert series[-1] > 0.999

    # The paper's ordering holds at every bound below the cap.
    for i, bound in enumerate(result.keys[:-1]):
        assert (
            result.pqos_series("grez-grec")[i] >= result.pqos_series("ranz-virc")[i]
        ), bound
        assert (
            result.pqos_series("grez-virc")[i] >= result.pqos_series("ranz-grec")[i] - 0.05
        ), bound

    # The refined phase helps most at tight bounds and fades as D grows.
    gains = [
        grec - virc
        for grec, virc in zip(result.pqos_series("grez-grec"), result.pqos_series("grez-virc"))
    ]
    assert all(g >= -1e-9 for g in gains)
    assert max(gains[:3]) >= gains[-1]
