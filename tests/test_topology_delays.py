"""Tests for repro.topology.delays — the RTT delay model with server-mesh discount."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.topology.delay_backends import compact_delay_matrix
from repro.topology.delays import MAX_RTT_MS, SERVER_MESH_FACTOR, DelayModel
from tests.conftest import flat_waxman


@pytest.fixture(scope="module")
def model(small_topology_module):
    return DelayModel(small_topology_module)


@pytest.fixture(scope="module")
def small_topology_module():
    return flat_waxman(30, seed=2)


class TestConstants:
    def test_paper_values(self):
        assert MAX_RTT_MS == 500.0
        assert SERVER_MESH_FACTOR == 0.5


class TestRttMatrix:
    def test_max_rtt_matches_setting(self, model):
        assert model.rtt.max() == pytest.approx(MAX_RTT_MS)

    def test_zero_diagonal(self, model):
        np.testing.assert_allclose(np.diag(model.rtt), 0.0)

    def test_symmetric(self, model):
        np.testing.assert_allclose(model.rtt, model.rtt.T)

    def test_cached(self, model):
        assert model.rtt is model.rtt


def _client_server(model, clients, servers):
    """Unrestricted client→server delays of ``clients`` in one zone."""
    clients = np.asarray(clients)
    return compact_delay_matrix(model, clients, np.zeros(clients.shape, dtype=int), 1, servers)


class TestClientServerDelays:
    def test_shape_and_values(self, model):
        matrix = _client_server(model, np.array([0, 1, 2, 3]), np.array([10, 20]))
        assert matrix.shape == (4, 2)
        assert matrix.toarray()[1, 1] == model.rtt[1, 20]

    def test_empty_clients(self, model):
        matrix = _client_server(model, np.array([], dtype=int), np.array([0, 1]))
        assert matrix.shape == (0, 2)
        assert matrix.toarray().shape == (0, 2)

    def test_out_of_range_rejected(self, model):
        with pytest.raises(ValueError):
            _client_server(model, np.array([0]), np.array([1000]))
        with pytest.raises(ValueError):
            _client_server(model, np.array([1000]), np.array([0]))

    def test_non_1d_rejected(self, model):
        with pytest.raises(ValueError):
            _client_server(model, np.array([0]), np.array([[1]]))


class TestServerMesh:
    def test_discount_factor_applied(self, model):
        servers = np.array([0, 5, 10])
        mesh = model.server_server_delays(servers)
        full = model.rtt[np.ix_(servers, servers)]
        off_diag = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(mesh[off_diag], SERVER_MESH_FACTOR * full[off_diag])

    def test_zero_diagonal_even_for_repeated_nodes(self, small_topology_module):
        model = DelayModel(small_topology_module)
        mesh = model.server_server_delays(np.array([3, 3]))
        # RTT between a node and itself is zero, and the diagonal is forced to 0.
        assert mesh[0, 0] == 0.0 and mesh[1, 1] == 0.0

    def test_mesh_never_slower_than_direct(self, model):
        servers = np.arange(10)
        mesh = model.server_server_delays(servers)
        direct = model.rtt[np.ix_(servers, servers)]
        assert (mesh <= direct + 1e-9).all()


class TestPickling:
    @pytest.mark.parametrize("filled", [False, True], ids=["unfilled", "filled"])
    def test_round_trip_preserves_rtt(self, small_topology_module, filled):
        model = DelayModel(small_topology_module)
        if filled:
            model.rtt  # fill the lazy cache before pickling
        clone = pickle.loads(pickle.dumps(model))
        # An unfilled model ships no matrix: the clone computes its own.
        assert (clone._rtt is None) is not filled
        np.testing.assert_array_equal(clone.rtt, model.rtt)
        assert clone.rtt is clone.rtt  # the clone caches its own copy

    def test_unfilled_model_pickle_ships_no_matrix(self, small_topology_module):
        model = DelayModel(small_topology_module)
        unfilled = len(pickle.dumps(model))
        model.rtt  # fill the lazy cache
        filled = len(pickle.dumps(model))
        # Default pickling carries the cache when filled and nothing when not.
        assert filled - unfilled >= model.rtt.nbytes
