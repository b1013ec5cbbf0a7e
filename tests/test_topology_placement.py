"""Tests for repro.topology.placement — server and client placement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.placement import (
    HOTSPOT_FRACTION,
    HOTSPOT_NODES,
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
    def test_paper_values(self):
        assert HOTSPOT_NODES == 10
        assert HOTSPOT_FRACTION == 0.7

    def test_hotspots_receive_most_clients(self, flat_topology):
        nodes = place_clients_clustered(flat_topology, 2000, seed=0)
        counts = np.bincount(nodes, minlength=flat_topology.num_nodes)
        # 70 % on the 10 hotspots plus their share of the uniform rest: ~80 %.
        top = np.sort(counts)[-HOTSPOT_NODES:].sum()
        assert top / 2000 > 0.7

    def test_zero_clients(self, flat_topology):
        assert place_clients_clustered(flat_topology, 0, seed=0).size == 0

    def test_negative_count(self, flat_topology):
        with pytest.raises(ValueError):
            place_clients_clustered(flat_topology, -1)

    def test_deterministic(self, flat_topology):
        a = place_clients_clustered(flat_topology, 50, seed=9)
        b = place_clients_clustered(flat_topology, 50, seed=9)
        np.testing.assert_array_equal(a, b)

