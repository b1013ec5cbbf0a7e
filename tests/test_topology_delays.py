"""Tests for repro.topology.delays — the RTT delay model with server-mesh discount."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.delays import DEFAULT_MAX_RTT_MS, DEFAULT_SERVER_MESH_FACTOR, DelayModel
from repro.topology.waxman import waxman_topology


@pytest.fixture(scope="module")
def model(small_topology_module):
    return DelayModel(small_topology_module)


@pytest.fixture(scope="module")
def small_topology_module():
    return waxman_topology(30, seed=2)


class TestDefaults:
    def test_paper_defaults(self):
        assert DEFAULT_MAX_RTT_MS == 500.0
        assert DEFAULT_SERVER_MESH_FACTOR == 0.5

    def test_invalid_mesh_factor(self, small_topology_module):
        with pytest.raises(ValueError):
            DelayModel(small_topology_module, server_mesh_factor=1.5)

    def test_invalid_max_rtt(self, small_topology_module):
        with pytest.raises(ValueError):
            DelayModel(small_topology_module, max_rtt_ms=-1.0)


class TestRttMatrix:
    def test_max_rtt_matches_setting(self, model):
        assert model.rtt.max() == pytest.approx(DEFAULT_MAX_RTT_MS)

    def test_zero_diagonal(self, model):
        np.testing.assert_allclose(np.diag(model.rtt), 0.0)

    def test_symmetric(self, model):
        np.testing.assert_allclose(model.rtt, model.rtt.T)

    def test_cached(self, model):
        assert model.rtt is model.rtt

    def test_node_rtt_scalar(self, model):
        assert model.node_rtt(0, 1) == pytest.approx(model.rtt[0, 1])


class TestClientServerDelays:
    def test_shape_and_values(self, model):
        clients = np.array([0, 1, 2, 3])
        servers = np.array([10, 20])
        matrix = model.client_server_delays(clients, servers)
        assert matrix.shape == (4, 2)
        assert matrix[1, 1] == pytest.approx(model.rtt[1, 20])

    def test_empty_clients(self, model):
        matrix = model.client_server_delays(np.array([], dtype=int), np.array([0, 1]))
        assert matrix.shape == (0, 2)

    def test_out_of_range_rejected(self, model):
        with pytest.raises(ValueError):
            model.client_server_delays(np.array([0]), np.array([1000]))

    def test_non_1d_rejected(self, model):
        with pytest.raises(ValueError):
            model.client_server_delays(np.array([[0]]), np.array([1]))


class TestServerMesh:
    def test_discount_factor_applied(self, model):
        servers = np.array([0, 5, 10])
        mesh = model.server_server_delays(servers)
        full = model.rtt[np.ix_(servers, servers)]
        off_diag = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(mesh[off_diag], 0.5 * full[off_diag])

    def test_zero_diagonal_even_for_repeated_nodes(self, small_topology_module):
        model = DelayModel(small_topology_module)
        mesh = model.server_server_delays(np.array([3, 3]))
        # RTT between a node and itself is zero, and the diagonal is forced to 0.
        assert mesh[0, 0] == 0.0 and mesh[1, 1] == 0.0

    def test_mesh_factor_zero_means_free_mesh(self, small_topology_module):
        model = DelayModel(small_topology_module, server_mesh_factor=0.0)
        mesh = model.server_server_delays(np.array([0, 1, 2]))
        np.testing.assert_allclose(mesh, 0.0)

    def test_mesh_never_slower_than_direct(self, model):
        servers = np.arange(10)
        mesh = model.server_server_delays(servers)
        direct = model.rtt[np.ix_(servers, servers)]
        assert (mesh <= direct + 1e-9).all()
