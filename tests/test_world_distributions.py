"""Tests for repro.world.distributions — client distribution models (paper Table 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.world.distributions import (
    DISTRIBUTION_TYPES,
    DistributionSpec,
    distribution_type,
    sample_client_nodes,
    sample_client_zones,
    zone_weights,
)


@pytest.fixture(scope="module")
def topology():
    return hierarchical_topology(HierarchicalParams(num_as=5, routers_per_as=6), seed=0)


class TestDistributionSpec:
    def test_defaults(self):
        spec = DistributionSpec()
        assert spec.physical == "uniform" and spec.virtual == "uniform"
        assert spec.type_id == 0

    def test_type_id_matches_table2(self):
        for type_id, (pw, vw) in DISTRIBUTION_TYPES.items():
            assert DistributionSpec(physical=pw, virtual=vw).type_id == type_id

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            DistributionSpec(physical="gaussian")
        with pytest.raises(ValueError):
            DistributionSpec(virtual="gaussian")

    def test_invalid_correlation(self):
        with pytest.raises(ValueError):
            DistributionSpec(correlation=1.2)

    def test_distribution_type_inverse(self):
        assert distribution_type("clustered", "clustered") == 3
        with pytest.raises(ValueError):
            distribution_type("uniform", "gaussian")


class TestZoneWeights:
    def test_uniform_all_ones(self):
        np.testing.assert_allclose(zone_weights(8, virtual="uniform"), 1.0)

    def test_clustered_has_hot_zones(self):
        weights = zone_weights(
            20, virtual="clustered", hot_zone_factor=10.0, hot_zone_fraction=0.1, seed=0
        )
        assert (weights == 10.0).sum() == 2
        assert (weights == 1.0).sum() == 18

    def test_at_least_one_hot_zone(self):
        weights = zone_weights(5, virtual="clustered", hot_zone_fraction=0.01, seed=0)
        assert (weights > 1.0).sum() >= 1

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            zone_weights(5, virtual="other")

    def test_invalid_zone_count(self):
        with pytest.raises(ValueError):
            zone_weights(0)


class TestSampleClientNodes:
    def test_uniform_range(self, topology):
        spec = DistributionSpec(physical="uniform")
        nodes = sample_client_nodes(topology, 200, spec, seed=1)
        assert nodes.size == 200
        assert nodes.max() < topology.num_nodes

    def test_clustered_concentrates(self, topology):
        spec = DistributionSpec(
            physical="clustered", physical_hotspots=2, physical_hotspot_fraction=0.9
        )
        nodes = sample_client_nodes(topology, 1000, spec, seed=1)
        counts = np.bincount(nodes, minlength=topology.num_nodes)
        assert np.sort(counts)[-2:].sum() > 700

    def test_deterministic(self, topology):
        spec = DistributionSpec()
        a = sample_client_nodes(topology, 50, spec, seed=4)
        b = sample_client_nodes(topology, 50, spec, seed=4)
        np.testing.assert_array_equal(a, b)


class TestSampleClientZones:
    def test_zone_range(self, topology):
        spec = DistributionSpec()
        nodes = sample_client_nodes(topology, 300, spec, seed=0)
        zones = sample_client_zones(topology, nodes, 10, spec, seed=0)
        assert zones.shape == (300,)
        assert zones.min() >= 0 and zones.max() < 10

    def test_clustered_virtual_world_has_hot_zones(self, topology):
        spec = DistributionSpec(virtual="clustered", hot_zone_factor=10.0, correlation=0.0)
        nodes = sample_client_nodes(topology, 2000, spec, seed=0)
        zones = sample_client_zones(topology, nodes, 20, spec, seed=0)
        counts = np.bincount(zones, minlength=20)
        # The 2 hot zones should hold far more than the 10 % a uniform split gives.
        assert np.sort(counts)[-2:].sum() > 0.3 * 2000

    def test_full_correlation_groups_regions(self, topology):
        spec = DistributionSpec(correlation=1.0)
        nodes = sample_client_nodes(topology, 1000, spec, seed=0)
        zones = sample_client_zones(topology, nodes, 10, spec, seed=0)
        regions = topology.node_domain[nodes]
        # With delta = 1 every client picks a zone from its region's preference
        # group, so the number of (region, zone) combinations is bounded by the
        # number of zones (each zone belongs to exactly one region's group).
        pairs = {(int(r), int(z)) for r, z in zip(regions, zones)}
        zones_per_region: dict[int, set[int]] = {}
        for r, z in pairs:
            zones_per_region.setdefault(r, set()).add(z)
        all_zone_sets = list(zones_per_region.values())
        for i, a in enumerate(all_zone_sets):
            for b in all_zone_sets[i + 1 :]:
                assert not (a & b), "regions must not share preferred zones at delta=1"

    def test_zero_correlation_spreads_regions(self, topology):
        spec = DistributionSpec(correlation=0.0)
        nodes = sample_client_nodes(topology, 2000, spec, seed=0)
        zones = sample_client_zones(topology, nodes, 10, spec, seed=0)
        counts = np.bincount(zones, minlength=10)
        # Uniform virtual world: every zone is populated.
        assert (counts > 0).all()

    def test_deterministic(self, topology):
        spec = DistributionSpec(correlation=0.5)
        nodes = sample_client_nodes(topology, 100, spec, seed=3)
        a = sample_client_zones(topology, nodes, 8, spec, seed=5)
        b = sample_client_zones(topology, nodes, 8, spec, seed=5)
        np.testing.assert_array_equal(a, b)
