"""Tests for the synthetic topology generators (Waxman, BA, hierarchical, BRITE, backbone)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.backbone import BackboneParams, great_circle_km, us_backbone_topology, US_POPS
from repro.topology.barabasi_albert import BarabasiAlbertParams, barabasi_albert_topology
from repro.topology.brite import BriteConfig, generate_topology
from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.waxman import WaxmanParams, waxman_topology


class TestWaxman:
    def test_connected_and_sized(self):
        topo = waxman_topology(30, seed=0)
        assert topo.num_nodes == 30
        assert topo.is_connected()

    def test_deterministic_for_seed(self):
        a = waxman_topology(25, seed=5)
        b = waxman_topology(25, seed=5)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_allclose(a.latencies, b.latencies)

    def test_different_seeds_differ(self):
        a = waxman_topology(25, seed=1)
        b = waxman_topology(25, seed=2)
        assert a.num_edges != b.num_edges or not np.array_equal(a.edges, b.edges)

    def test_single_node(self):
        topo = waxman_topology(1, seed=0)
        assert topo.num_nodes == 1
        assert topo.num_edges == 0

    def test_positive_latencies(self):
        topo = waxman_topology(20, seed=0)
        assert (topo.latencies > 0).all()

    def test_higher_alpha_gives_more_edges(self):
        sparse = waxman_topology(40, params=WaxmanParams(alpha=0.05), seed=3)
        dense = waxman_topology(40, params=WaxmanParams(alpha=0.6), seed=3)
        assert dense.num_edges > sparse.num_edges

    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            waxman_topology(0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            WaxmanParams(alpha=1.5)


class TestBarabasiAlbert:
    def test_connected_and_sized(self):
        topo = barabasi_albert_topology(30, seed=0)
        assert topo.num_nodes == 30
        assert topo.is_connected()

    def test_edge_count_formula(self):
        # Seed clique of m+1 nodes plus m edges per additional node.
        m = 2
        n = 25
        topo = barabasi_albert_topology(n, params=BarabasiAlbertParams(m=m), seed=1)
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

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            BarabasiAlbertParams(m=0)


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


class TestBriteConfig:
    def test_default_matches_paper(self):
        config = BriteConfig()
        assert config.num_nodes == 500
        assert config.num_as == 20
        assert config.routers_per_as == 25

    def test_node_count_consistency_enforced(self):
        with pytest.raises(ValueError):
            BriteConfig(num_nodes=100, num_as=20, routers_per_as=25)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            BriteConfig(model="gnutella")

    def test_describe_mentions_model(self):
        assert "hierarchical" in BriteConfig().describe()
        assert "waxman" in BriteConfig(model="waxman", num_nodes=50).describe()

    def test_generate_hierarchical(self):
        config = BriteConfig(model="hierarchical", num_nodes=30, num_as=5, routers_per_as=6)
        topo = generate_topology(config, seed=0)
        assert topo.num_nodes == 30
        assert topo.num_domains == 5

    def test_generate_flat_models(self):
        for model in ("waxman", "barabasi-albert"):
            topo = generate_topology(BriteConfig(model=model, num_nodes=20), seed=0)
            assert topo.num_nodes == 20
            assert topo.is_connected()

    @pytest.mark.slow
    def test_paper_default_topology(self):
        topo = generate_topology(BriteConfig(), seed=0)
        assert topo.num_nodes == 500
        assert topo.num_domains == 20
        assert topo.is_connected()


class TestBackbone:
    def test_pops_plus_access_routers(self):
        params = BackboneParams(access_routers_per_pop=2)
        topo = us_backbone_topology(params, seed=0)
        assert topo.num_nodes == len(US_POPS) * (1 + 2)
        assert topo.is_connected()

    def test_no_access_routers(self):
        topo = us_backbone_topology(BackboneParams(access_routers_per_pop=0), seed=0)
        assert topo.num_nodes == len(US_POPS)

    def test_deterministic(self):
        a = us_backbone_topology(seed=4)
        b = us_backbone_topology(seed=4)
        np.testing.assert_allclose(a.latencies, b.latencies)

    def test_great_circle_known_distance(self):
        # New York (40.7, -74.0) to Los Angeles (34.05, -118.25) ≈ 3940 km.
        d = great_circle_km(40.7128, -74.006, 34.0522, -118.2437)
        assert 3800 < d < 4050

    def test_great_circle_zero(self):
        assert great_circle_km(10.0, 20.0, 10.0, 20.0) == pytest.approx(0.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BackboneParams(neighbour_links=0)
