"""Tests for repro.measurement — delay-estimation error models (Table 4 substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.error import (
    IDMAPS,
    KING,
    PERFECT,
    ErrorModel,
    apply_multiplicative_error,
)
from repro.measurement.estimators import DelayEstimator


class TestErrorModel:
    def test_builtin_models_match_paper(self):
        assert PERFECT.factor == 1.0 and PERFECT.is_perfect
        assert KING.factor == 1.2 and KING.name == "king"
        assert IDMAPS.factor == 2.0 and IDMAPS.name == "idmaps"

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(0.5)

    def test_perturb_bounds(self):
        delays = np.linspace(10, 500, 200)
        noisy = ErrorModel(2.0).perturb(delays, seed=0)
        assert (noisy >= delays / 2.0 - 1e-9).all()
        assert (noisy <= delays * 2.0 + 1e-9).all()

    def test_perfect_perturb_is_identity_copy(self):
        delays = np.array([1.0, 2.0, 3.0])
        out = PERFECT.perturb(delays, seed=0)
        np.testing.assert_array_equal(out, delays)
        assert out is not delays

    def test_zero_delays_stay_zero(self):
        delays = np.array([0.0, 100.0, 0.0])
        noisy = ErrorModel(2.0).perturb(delays, seed=1)
        assert noisy[0] == 0.0 and noisy[2] == 0.0

    def test_deterministic(self):
        delays = np.arange(1.0, 50.0)
        a = KING.perturb(delays, seed=7)
        b = KING.perturb(delays, seed=7)
        np.testing.assert_allclose(a, b)


class TestApplyMultiplicativeError:
    def test_shape_preserved(self):
        delays = np.ones((4, 5)) * 100
        noisy = apply_multiplicative_error(delays, 1.5, seed=0)
        assert noisy.shape == (4, 5)

    def test_larger_factor_more_spread(self):
        delays = np.full(5000, 100.0)
        mild = apply_multiplicative_error(delays, 1.2, seed=0)
        wild = apply_multiplicative_error(delays, 2.0, seed=0)
        assert wild.std() > mild.std()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            apply_multiplicative_error(np.array([-1.0]), 1.2)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            apply_multiplicative_error(np.array([1.0]), 0.9)


class TestDelayEstimator:
    def test_perfect_estimate_returns_same_instance(self, tiny_instance):
        assert DelayEstimator(PERFECT).estimate(tiny_instance) is tiny_instance

    def test_estimate_replaces_delays_only(self, tiny_instance):
        estimator = DelayEstimator(KING)
        estimated = estimator.estimate(tiny_instance, seed=0)
        assert estimated is not tiny_instance
        assert not np.array_equal(
            estimated.client_server_delays.toarray(), tiny_instance.client_server_delays.toarray()
        )
        np.testing.assert_array_equal(estimated.client_zones, tiny_instance.client_zones)
        np.testing.assert_allclose(estimated.client_demands, tiny_instance.client_demands)
        assert estimated.delay_bound == tiny_instance.delay_bound

    def test_server_mesh_optionally_exact(self, tiny_instance):
        estimator = DelayEstimator(KING, perturb_server_mesh=False)
        estimated = estimator.estimate(tiny_instance, seed=0)
        np.testing.assert_allclose(
            estimated.server_server_delays, tiny_instance.server_server_delays
        )

    def test_estimated_delays_within_error_bounds(self, tiny_instance):
        estimated = DelayEstimator(IDMAPS).estimate(tiny_instance, seed=3)
        true = tiny_instance.client_server_delays.toarray()
        seen = estimated.client_server_delays.toarray()
        assert (seen >= true / 2.0 - 1e-9).all()
        assert (seen <= true * 2.0 + 1e-9).all()

    def test_deterministic(self, tiny_instance):
        a = DelayEstimator(KING).estimate(tiny_instance, seed=5)
        b = DelayEstimator(KING).estimate(tiny_instance, seed=5)
        np.testing.assert_allclose(
            a.client_server_delays.toarray(),
            b.client_server_delays.toarray(),
        )
