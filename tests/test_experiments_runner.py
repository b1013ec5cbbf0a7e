"""Tests for repro.experiments.runner — multi-run evaluation and aggregation."""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401
from repro.experiments.runner import evaluate_algorithms, run_replications
from repro.measurement.error import IDMAPS
from repro.measurement.estimators import DelayEstimator
from tests.conftest import make_small_config

ALGORITHMS = ["ranz-virc", "grez-grec"]


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
        assert result.algorithms() == ALGORITHMS

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
