"""Tests for the synthetic topology generators (Waxman, BA, hierarchical, BRITE)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.topology.barabasi_albert import M, barabasi_albert_topology
from repro.topology.brite import BriteConfig, generate_topology
from repro.topology.graph import Topology
from repro.topology.hierarchical import (
    BORDER_ROUTERS_PER_AS,
    HierarchicalParams,
    hierarchical_topology,
)
from tests.conftest import flat_waxman


class TestWaxman:
    def test_connected_and_sized(self):
        topo = flat_waxman(30, seed=0)
        assert topo.num_nodes == 30
        assert topo.is_connected()

    def test_deterministic_for_seed(self):
        a = flat_waxman(25, seed=5)
        b = flat_waxman(25, seed=5)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_allclose(a.latencies, b.latencies)

    def test_different_seeds_differ(self):
        a = flat_waxman(25, seed=1)
        b = flat_waxman(25, seed=2)
        assert a.num_edges != b.num_edges or not np.array_equal(a.edges, b.edges)

    def test_single_node(self):
        topo = flat_waxman(1, seed=0)
        assert topo.num_nodes == 1
        assert topo.num_edges == 0

    def test_positive_latencies(self):
        topo = flat_waxman(20, seed=0)
        assert (topo.latencies > 0).all()



class TestBarabasiAlbert:
    def test_connected_and_sized(self):
        topo = barabasi_albert_topology(30, seed=0)
        assert topo.num_nodes == 30
        assert topo.is_connected()

    def test_edge_count_formula(self):
        # Seed clique of m+1 nodes plus m edges per additional node.
        m = M
        n = 25
        topo = barabasi_albert_topology(n, seed=1)
        expected = m * (m + 1) // 2 + (n - m - 1) * m
        assert topo.num_edges == expected

    def test_scale_free_hubs_exist(self):
        topo = barabasi_albert_topology(100, seed=7)
        deg = topo.degree()
        assert deg.max() >= 3 * np.median(deg)

    def test_deterministic(self):
        a = barabasi_albert_topology(20, seed=9)
        b = barabasi_albert_topology(20, seed=9)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_single_node(self):
        topo = barabasi_albert_topology(1, seed=0)
        assert topo.num_edges == 0


class TestHierarchical:
    def test_shape_and_domains(self):
        params = HierarchicalParams(num_as=4, routers_per_as=6)
        topo = hierarchical_topology(params, seed=0)
        assert topo.num_nodes == 24
        assert topo.num_domains == 4
        assert topo.is_connected()

    def test_domain_sizes_equal(self):
        params = HierarchicalParams(num_as=3, routers_per_as=5)
        topo = hierarchical_topology(params, seed=1)
        for d in range(3):
            assert topo.domain_nodes(d).size == 5

    def test_deterministic(self):
        params = HierarchicalParams(num_as=3, routers_per_as=5)
        a = hierarchical_topology(params, seed=11)
        b = hierarchical_topology(params, seed=11)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_allclose(a.latencies, b.latencies)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HierarchicalParams(num_as=0)
        with pytest.raises(ValueError):
            HierarchicalParams(routers_per_as=0)


#: Hierarchy shapes ``(num_as, routers_per_as)``, down to one AS and one router.
SHAPES = [(1, 1), (1, 6), (2, 1), (3, 5), (6, 4), (10, 3)]


def _shape_id(shape) -> str:
    return "{}x{}".format(*shape)


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
class TestHierarchicalStructure:
    """The two-level construction, checked on the generated graph itself."""

    @staticmethod
    def _generate(shape, seed=3):
        num_as, routers_per_as = shape
        params = HierarchicalParams(num_as=num_as, routers_per_as=routers_per_as)
        return params, hierarchical_topology(params, seed=seed)

    @staticmethod
    def _inter_domain_edges(topo):
        domains = topo.node_domain[topo.edges]
        return topo.edges[domains[:, 0] != domains[:, 1]]

    def test_domains_are_contiguous_blocks(self, shape):
        params, topo = self._generate(shape)
        expected = np.repeat(np.arange(params.num_as), params.routers_per_as)
        np.testing.assert_array_equal(topo.node_domain, expected)

    def test_each_domain_is_connected_on_its_own(self, shape):
        params, topo = self._generate(shape)
        for as_id in range(params.num_as):
            nodes = topo.domain_nodes(as_id)
            inside = np.isin(topo.edges, nodes).all(axis=1)
            local = Topology(
                positions=topo.positions[nodes],
                edges=topo.edges[inside] - nodes[0],
                latencies=topo.latencies[inside],
            )
            assert local.is_connected(), as_id

    def test_inter_domain_links_realise_the_as_graph(self, shape):
        params, topo = self._generate(shape)
        links = self._inter_domain_edges(topo)
        as_level = barabasi_albert_topology(params.num_as, seed=0)
        assert links.shape[0] == as_level.num_edges
        pairs = np.sort(topo.node_domain[links], axis=1)
        assert np.unique(pairs, axis=0).shape[0] == pairs.shape[0]
        quotient = Topology(
            positions=np.zeros((params.num_as, 2)),
            edges=pairs,
            latencies=np.ones(pairs.shape[0]),
        )
        assert quotient.is_connected()

    def test_inter_domain_links_leave_from_border_routers(self, shape):
        params, topo = self._generate(shape)
        endpoints = np.unique(self._inter_domain_edges(topo))
        per_domain = np.bincount(topo.node_domain[endpoints], minlength=params.num_as)
        assert per_domain.max(initial=0) <= BORDER_ROUTERS_PER_AS

    def test_brite_front_end_builds_the_same_graph(self, shape):
        num_as, routers_per_as = shape
        _, expected = self._generate(shape, seed=5)
        topo = generate_topology(BriteConfig(num_as=num_as, routers_per_as=routers_per_as), seed=5)
        assert topo.name == f"brite-hier-{num_as * routers_per_as}"
        np.testing.assert_array_equal(topo.edges, expected.edges)
        np.testing.assert_array_equal(topo.latencies, expected.latencies)
        np.testing.assert_array_equal(topo.positions, expected.positions)


class TestBriteConfig:
    def test_default_matches_paper(self):
        config = BriteConfig()
        assert config.num_nodes == 500
        assert config.num_as == 20
        assert config.routers_per_as == 25

    def test_num_nodes_is_the_hierarchy_size(self):
        assert BriteConfig(num_as=5, routers_per_as=6).num_nodes == 30

    def test_generate_hierarchical(self):
        topo = generate_topology(BriteConfig(num_as=5, routers_per_as=6), seed=0)
        assert topo.num_nodes == 30
        assert topo.num_domains == 5

    def test_invalid_shape_rejected_at_generation(self):
        with pytest.raises(ValueError):
            generate_topology(BriteConfig(num_as=0))

    @pytest.mark.parametrize("routers_per_as", [0, -1])
    def test_invalid_router_count_rejected_at_generation(self, routers_per_as):
        with pytest.raises(ValueError, match="routers_per_as"):
            generate_topology(BriteConfig(routers_per_as=routers_per_as))

    def test_fields_are_the_hierarchy_parameters(self):
        names = [f.name for f in dataclasses.fields(BriteConfig)]
        assert names == ["num_as", "routers_per_as"]

    def test_num_nodes_is_derived_not_set(self):
        with pytest.raises(TypeError):
            BriteConfig(num_nodes=500)  # type: ignore[call-arg]

    @pytest.mark.slow
    def test_paper_default_topology(self):
        topo = generate_topology(BriteConfig(), seed=0)
        assert topo.num_nodes == 500
        assert topo.num_domains == 20
        assert topo.is_connected()

