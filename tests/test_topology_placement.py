"""Tests for repro.topology.placement — server and client placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.placement import (
    ClusteredPlacementParams,
    place_clients_clustered,
    place_clients_uniform,
    place_servers,
)
from tests.conftest import flat_waxman


@pytest.fixture(scope="module")
def flat_topology():
    return flat_waxman(30, seed=1)


@pytest.fixture(scope="module")
def domain_topology():
    return hierarchical_topology(HierarchicalParams(num_as=6, routers_per_as=5), seed=1)


class TestPlaceServers:
    def test_distinct_nodes(self, flat_topology):
        nodes = place_servers(flat_topology, 8, seed=0)
        assert nodes.size == 8
        assert np.unique(nodes).size == 8
        assert nodes.max() < flat_topology.num_nodes

    def test_spread_across_domains(self, domain_topology):
        nodes = place_servers(domain_topology, 6, seed=0)
        domains = domain_topology.node_domain[nodes]
        assert np.unique(domains).size == 6

    def test_more_servers_than_domains_falls_back(self, domain_topology):
        nodes = place_servers(domain_topology, 10, seed=0)
        assert np.unique(nodes).size == 10

    def test_no_spreading_when_disabled(self, domain_topology):
        nodes = place_servers(domain_topology, 6, seed=0, spread_across_domains=False)
        assert np.unique(nodes).size == 6

    def test_too_many_servers(self, flat_topology):
        with pytest.raises(ValueError):
            place_servers(flat_topology, flat_topology.num_nodes + 1)

    def test_deterministic(self, flat_topology):
        a = place_servers(flat_topology, 5, seed=3)
        b = place_servers(flat_topology, 5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_invalid_count(self, flat_topology):
        with pytest.raises(ValueError):
            place_servers(flat_topology, 0)


class TestPlaceClientsUniform:
    def test_within_range(self, flat_topology):
        nodes = place_clients_uniform(flat_topology, 100, seed=0)
        assert nodes.size == 100
        assert nodes.min() >= 0 and nodes.max() < flat_topology.num_nodes

    def test_zero_clients(self, flat_topology):
        assert place_clients_uniform(flat_topology, 0, seed=0).size == 0

    def test_exclude_nodes_honoured(self, flat_topology):
        excluded = np.array([0, 1, 2])
        nodes = place_clients_uniform(flat_topology, 200, seed=0, exclude_nodes=excluded)
        assert not np.isin(nodes, excluded).any()

    def test_exclude_everything_raises(self):
        topo = flat_waxman(3, seed=0)
        with pytest.raises(ValueError):
            place_clients_uniform(topo, 5, exclude_nodes=np.arange(3))

    def test_negative_count(self, flat_topology):
        with pytest.raises(ValueError):
            place_clients_uniform(flat_topology, -1)

    def test_roughly_uniform(self, flat_topology):
        nodes = place_clients_uniform(flat_topology, 6000, seed=0)
        counts = np.bincount(nodes, minlength=flat_topology.num_nodes)
        # Expected 200 per node; no node should be empty or wildly dominant.
        assert counts.min() > 100
        assert counts.max() < 350


class TestPlaceClientsClustered:
    def test_hotspots_receive_most_clients(self, flat_topology):
        params = ClusteredPlacementParams(num_hotspots=3, hotspot_fraction=0.8)
        nodes = place_clients_clustered(flat_topology, 2000, params=params, seed=0)
        counts = np.bincount(nodes, minlength=flat_topology.num_nodes)
        top3 = np.sort(counts)[-3:].sum()
        assert top3 / 2000 > 0.6

    def test_fraction_zero_is_uniform_like(self, flat_topology):
        params = ClusteredPlacementParams(num_hotspots=3, hotspot_fraction=0.0)
        nodes = place_clients_clustered(flat_topology, 500, params=params, seed=0)
        counts = np.bincount(nodes, minlength=flat_topology.num_nodes)
        assert counts.max() < 500 * 0.2

    def test_deterministic(self, flat_topology):
        a = place_clients_clustered(flat_topology, 50, seed=9)
        b = place_clients_clustered(flat_topology, 50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ClusteredPlacementParams(num_hotspots=0)
        with pytest.raises(ValueError):
            ClusteredPlacementParams(hotspot_fraction=1.5)
