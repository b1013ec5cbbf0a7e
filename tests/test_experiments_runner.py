"""Tests for repro.experiments.runner — multi-run evaluation and aggregation."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.baselines  # noqa: F401
from repro.experiments.runner import (
    StudyResult,
    SweepPoint,
    evaluate_algorithms,
    qos_cell,
    replicate,
    run_replications,
    run_sweep,
)
from repro.measurement.error import IDMAPS
from repro.measurement.estimators import DelayEstimator
from repro.utils.pool import WorkerTaskError
from repro.utils.rng import spawn_generators
from tests.conftest import make_small_config

ALGORITHMS = ["ranz-virc", "grez-grec"]


def _draws(world_rng, engine_rng, name):
    """Module-level replica (picklable): the point's name and one draw per stream."""
    return name, int(world_rng.integers(2**62)), int(engine_rng.integers(2**62))


def _fail_on_b(world_rng, engine_rng, name):
    """Module-level replica that fails for point ``b``."""
    if name == "b":
        raise RuntimeError("point b exploded")
    return name


class TestEvaluateAlgorithms:
    def test_all_algorithms_present(self, small_scenario):
        results = evaluate_algorithms(small_scenario, ALGORITHMS, seed=0)
        assert set(results) == set(ALGORITHMS)
        for obs in results.values():
            assert 0.0 <= obs.pqos <= 1.0
            assert obs.utilization > 0.0
            assert obs.runtime_seconds >= 0.0
            assert obs.delays is None

    def test_collect_delays(self, small_scenario):
        results = evaluate_algorithms(small_scenario, ["grez-grec"], seed=0, collect_delays=True)
        delays = results["grez-grec"].delays
        assert delays is not None
        assert delays.shape == (small_scenario.num_clients,)

    def test_delay_bound_override_changes_pqos(self, small_scenario):
        strict = evaluate_algorithms(small_scenario, ["grez-grec"], seed=0, delay_bound_ms=50.0)
        loose = evaluate_algorithms(small_scenario, ["grez-grec"], seed=0, delay_bound_ms=500.0)
        assert loose["grez-grec"].pqos >= strict["grez-grec"].pqos
        assert loose["grez-grec"].pqos == pytest.approx(1.0)

    def test_estimator_decisions_evaluated_on_true_delays(self, small_scenario):
        noisy = evaluate_algorithms(
            small_scenario, ["grez-grec"], seed=0, estimator=DelayEstimator(IDMAPS)
        )
        perfect = evaluate_algorithms(small_scenario, ["grez-grec"], seed=0)
        # Imperfect knowledge can only hurt (or match) the true-delay pQoS.
        assert noisy["grez-grec"].pqos <= perfect["grez-grec"].pqos + 1e-9

    def test_unknown_algorithm_rejected(self, small_scenario):
        with pytest.raises(KeyError):
            evaluate_algorithms(small_scenario, ["not-an-algorithm"], seed=0)

    def test_deterministic(self, small_scenario):
        a = evaluate_algorithms(small_scenario, ALGORITHMS, seed=3)
        b = evaluate_algorithms(small_scenario, ALGORITHMS, seed=3)
        for name in ALGORITHMS:
            assert a[name].pqos == b[name].pqos


class TestRunReplications:
    def test_summaries_and_counts(self):
        config = make_small_config(num_clients=80, num_zones=8)
        result = run_replications(config, ALGORITHMS, num_runs=3, seed=0)
        assert result.num_runs == 3
        assert set(result.summaries) == set(ALGORITHMS)
        for summary in result.summaries.values():
            assert summary.pqos.count == 3
            assert 0.0 <= summary.pqos.mean <= 1.0
            assert summary.utilization.mean > 0.0

    def test_accessors(self):
        config = make_small_config(num_clients=60, num_zones=6)
        result = run_replications(config, ALGORITHMS, num_runs=2, seed=1)
        assert result.pqos("grez-grec") == result.summaries["grez-grec"].pqos.mean
        assert result.utilization("ranz-virc") == result.summaries["ranz-virc"].utilization.mean
        assert list(result.summaries) == ALGORITHMS

    def test_collect_delays_builds_cdf(self):
        config = make_small_config(num_clients=60, num_zones=6)
        grid = np.linspace(0, 500, 11)
        result = run_replications(
            config, ["grez-grec"], num_runs=2, seed=0, collect_delays=True, cdf_grid=grid
        )
        cdf = result.summaries["grez-grec"].delay_cdf
        assert cdf is not None
        assert cdf.num_samples == 2 * 60
        assert cdf.values[-1] == pytest.approx(1.0)

    def test_share_topology_reuses_substrate(self):
        config = make_small_config(num_clients=60, num_zones=6)
        shared = run_replications(config, ["grez-grec"], num_runs=2, seed=5, share_topology=True)
        fresh = run_replications(config, ["grez-grec"], num_runs=2, seed=5, share_topology=False)
        # Both are valid experiments; the results just come from different draws.
        assert 0.0 <= shared.pqos("grez-grec") <= 1.0
        assert 0.0 <= fresh.pqos("grez-grec") <= 1.0

    def test_keep_observations(self):
        config = make_small_config(num_clients=60, num_zones=6)
        result = run_replications(
            config, ["grez-grec"], num_runs=2, seed=0, keep_observations=True
        )
        assert len(result.observations["grez-grec"]) == 2

    def test_reproducible(self):
        config = make_small_config(num_clients=60, num_zones=6)
        a = run_replications(config, ALGORITHMS, num_runs=2, seed=11)
        b = run_replications(config, ALGORITHMS, num_runs=2, seed=11)
        for name in ALGORITHMS:
            assert a.pqos(name) == pytest.approx(b.pqos(name))
            assert a.utilization(name) == pytest.approx(b.utilization(name))


class TestReplicate:
    POINTS = [dict(name="a"), dict(name="b"), dict(name="c")]

    def test_streams_are_point_major(self):
        results = list(replicate(_draws, self.POINTS, num_runs=2, seed=5))
        children = spawn_generators(5, 6)
        for p, point in enumerate(self.POINTS):
            for r in range(2):
                world, engine = spawn_generators(children[p * 2 + r], 2)
                expected = (point["name"], int(world.integers(2**62)), int(engine.integers(2**62)))
                assert results[p * 2 + r] == expected

    def test_workers_match_serial(self):
        serial = list(replicate(_draws, self.POINTS, num_runs=2, seed=9))
        parallel = list(replicate(_draws, self.POINTS, num_runs=2, seed=9, workers=2))
        assert parallel == serial

    def test_failing_run_reports_its_task_index(self):
        with pytest.raises(WorkerTaskError, match="point b exploded") as excinfo:
            list(replicate(_fail_on_b, self.POINTS, num_runs=2, seed=0, workers=2))
        # Point b's replicas are tasks 2 and 3; the first to fail is reported.
        assert excinfo.value.task_index == 2

    def test_zero_runs_rejected_before_any_run(self):
        with pytest.raises(ValueError, match="num_runs"):
            replicate(_fail_on_b, self.POINTS, num_runs=0)


class TestRunSweep:
    def test_each_point_is_run_replications_with_its_keywords(self):
        config = make_small_config(num_clients=60, num_zones=6)
        points = [
            SweepPoint("plain", config),
            SweepPoint(
                "tight", config, delay_bound_ms=150.0, algorithms=("grez-grec", "ranz-virc")
            ),
        ]
        sweep = run_sweep(points, ["grez-grec"], num_runs=2, seed=3)
        assert sweep.keys == ["plain", "tight"]
        assert sweep.algorithms == ["grez-grec"]
        assert sweep.label == config.label
        direct = run_replications(
            config, ["grez-grec", "ranz-virc"], num_runs=2, seed=3, delay_bound_ms=150.0
        )
        assert list(sweep.results["tight"].summaries) == ["grez-grec", "ranz-virc"]
        assert sweep.results["tight"].pqos("ranz-virc") == direct.pqos("ranz-virc")
        assert sweep.cell("tight", "ranz-virc") == qos_cell(
            direct.pqos("ranz-virc"), direct.utilization("ranz-virc")
        )
        # The per-point list adds an algorithm at that point only.
        assert sweep.cell("plain", "ranz-virc") == "-"
        assert sweep.panel("utilization") == [
            [key, sweep.results[key].utilization("grez-grec")] for key in sweep.keys
        ]
        assert sweep.pqos_series("grez-grec") == [
            result.pqos("grez-grec") for result in sweep.results.values()
        ]

    def test_estimator_reaches_the_point(self):
        config = make_small_config(num_clients=60, num_zones=6)
        estimator = DelayEstimator(IDMAPS)
        sweep = run_sweep([SweepPoint(2.0, config, estimator=estimator)], ["grez-grec"], num_runs=1)
        direct = run_replications(config, ["grez-grec"], num_runs=1, estimator=estimator)
        assert sweep.pqos_series("grez-grec") == [direct.pqos("grez-grec")]

    def test_qos_cell_format(self):
        assert qos_cell(0.8249, 0.6) == "0.82 (0.60)"


class TestStudyResult:
    def test_collect_averages_streamed_observations(self):
        def observations():
            for value in (0.9, 0.8, 0.7):
                yield {("a", "x"): value, ("a", "y"): value + 0.05}

        result = StudyResult.collect(observations(), "label", 3, ["a"], ["x", "y"], k=1)
        assert result.mean("a", "x") == pytest.approx(0.8)
        assert result.stats[("a", "y")].count == 3
        assert result.setting == {"k": 1}

    def test_nan_values_are_skipped(self):
        runs = [{("a", "x"): float("nan")}, {("a", "x"): 0.5}]
        stat = StudyResult.collect(runs, "label", 2, ["a"], ["x"]).stats[("a", "x")]
        assert stat.count == 1 and stat.mean == 0.5

    def test_unseen_cell_has_nan_mean_and_zero_count(self):
        result = StudyResult.collect([{("a", "x"): 1.0}], "label", 1, ["a", "b"], ["x", "y"])
        for cell in (("a", "y"), ("b", "x"), ("b", "y")):
            assert result.stats[cell].count == 0
            assert math.isnan(result.stats[cell].mean)

    def test_tuple_row_key_fills_leading_cells(self):
        runs = [{(("a", 0), "x"): 1.0, ("b", "x"): 2.0}]
        result = StudyResult.collect(runs, "label", 1, [("a", 0), "b"], ["x"])
        assert result.table() == [["a", 0, 1.0], ["b", 2.0]]
