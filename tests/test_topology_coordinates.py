"""Tests for repro.topology.coordinates — Vivaldi-style network coordinates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.coordinates import (
    DEFAULT_COORDS_DIM,
    NetworkCoordinates,
    fit_network_coordinates,
)
from repro.topology.delay_backends import network_coordinates_for
from repro.topology.delays import DelayModel


@pytest.fixture(scope="module")
def model(small_topology):
    return DelayModel(small_topology)


@pytest.fixture(scope="module")
def coords(model) -> NetworkCoordinates:
    return fit_network_coordinates(model.rtt)


class TestFit:
    def test_shapes(self, model, coords):
        n = model.num_nodes
        assert coords.positions.shape == (n, DEFAULT_COORDS_DIM)
        assert coords.heights.shape == (n,)
        assert coords.num_nodes == n

    def test_deterministic(self, model, coords):
        again = fit_network_coordinates(model.rtt)
        np.testing.assert_array_equal(coords.positions, again.positions)
        np.testing.assert_array_equal(coords.heights, again.heights)

    def test_heights_non_negative(self, coords):
        assert (coords.heights >= 0.0).all()

    def test_read_only_state(self, coords):
        with pytest.raises(ValueError):
            coords.positions[0, 0] = 1.0
        with pytest.raises(ValueError):
            coords.heights[0] = 1.0

    def test_fit_quality(self, coords):
        # The embedding is approximate by design, but must be usable: the
        # published Vivaldi error on internet RTTs is ~10-15 %; allow slack
        # for the small synthetic topology.
        assert 0.0 < coords.fit_median_relative_error < 0.35
        assert coords.fit_rmse_ms > 0.0

    def test_rejects_bad_rtt(self):
        with pytest.raises(ValueError):
            fit_network_coordinates(np.zeros((3, 4)))


class TestPredict:
    def test_non_negative(self, coords, model):
        rng = np.random.default_rng(0)
        u = rng.integers(0, model.num_nodes, size=64)
        v = rng.integers(0, model.num_nodes, size=64)
        assert (coords.predict_matrix(u, v) >= 0.0).all()

    def test_symmetric(self, coords, model):
        rng = np.random.default_rng(1)
        u = rng.integers(0, model.num_nodes, size=64)
        v = rng.integers(0, model.num_nodes, size=64)
        np.testing.assert_allclose(
            coords.predict_matrix(u, v), coords.predict_matrix(v, u).T, rtol=1e-9, atol=1e-9
        )

    def test_matrix_matches_definition(self, coords, model):
        # Predicted RTT = Euclidean distance + both nodes' heights (0 on u == v).
        rows = np.arange(0, model.num_nodes, 3)
        cols = np.arange(1, model.num_nodes, 4)
        matrix = coords.predict_matrix(rows, cols)
        assert matrix.shape == (rows.size, cols.size)
        diff = coords.positions[rows][:, None, :] - coords.positions[cols][None, :, :]
        expected = (
            np.sqrt(np.sum(diff * diff, axis=-1))
            + coords.heights[rows][:, None]
            + coords.heights[cols][None, :]
        )
        expected[rows[:, None] == cols[None, :]] = 0.0
        np.testing.assert_allclose(matrix, expected, rtol=1e-9, atol=1e-9)

    def test_matrix_zero_where_same_node(self, coords):
        nodes = np.array([0, 1, 2, 5])
        matrix = coords.predict_matrix(nodes, nodes)
        np.testing.assert_array_equal(np.diag(matrix), 0.0)


class TestCaching:
    def test_cached_per_model_and_dim(self, model):
        first = network_coordinates_for(model)
        assert network_coordinates_for(model) is first
        other_dim = network_coordinates_for(model, dim=3)
        assert other_dim is not first
        assert other_dim.positions.shape[1] == 3
        assert network_coordinates_for(model, dim=3) is other_dim
