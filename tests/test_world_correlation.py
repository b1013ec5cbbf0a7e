"""Tests for repro.world.correlation — the physical↔virtual correlation model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.correlation import RegionZoneMap, correlated_zone_choice


class TestRegionZoneMap:
    def test_balanced_partition_sizes(self):
        regions = np.array([0, 1, 2, 3])
        mapping = RegionZoneMap.balanced(10, regions, seed=0)
        sizes = [mapping.zones_of_region(r).size for r in range(4)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_every_zone_assigned_once(self):
        mapping = RegionZoneMap.balanced(12, np.array([0, 1, 2]), seed=1)
        all_zones = np.concatenate([mapping.zones_of_region(r) for r in range(3)])
        assert sorted(all_zones.tolist()) == list(range(12))

    def test_more_regions_than_zones_never_empty(self):
        mapping = RegionZoneMap.balanced(3, np.arange(10), seed=0)
        for region in range(10):
            assert mapping.zones_of_region(region).size >= 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RegionZoneMap.balanced(0, np.array([0]))
        with pytest.raises(ValueError):
            RegionZoneMap.balanced(5, np.array([], dtype=int))

    def test_region_of_zone_validation(self):
        with pytest.raises(ValueError):
            RegionZoneMap(num_zones=2, region_of_zone=np.array([0, 7]), regions=np.array([0, 1]))


class TestCorrelatedZoneChoice:
    def setup_method(self):
        self.region_map = RegionZoneMap.balanced(8, np.array([0, 1]), seed=0)
        self.weights = np.ones(8)

    def test_zero_delta_ignores_regions(self):
        regions = np.zeros(5000, dtype=int)
        zones = correlated_zone_choice(regions, self.weights, 0.0, self.region_map, seed=0)
        counts = np.bincount(zones, minlength=8)
        # All 8 zones get clients even though every client is from region 0.
        assert (counts > 0).all()

    def test_full_delta_respects_preference_groups(self):
        regions = np.array([0] * 100 + [1] * 100)
        zones = correlated_zone_choice(regions, self.weights, 1.0, self.region_map, seed=0)
        group0 = set(self.region_map.zones_of_region(0).tolist())
        group1 = set(self.region_map.zones_of_region(1).tolist())
        assert set(zones[:100].tolist()) <= group0
        assert set(zones[100:].tolist()) <= group1

    def test_intermediate_delta_mixes(self):
        regions = np.zeros(4000, dtype=int)
        zones = correlated_zone_choice(regions, self.weights, 0.5, self.region_map, seed=0)
        group0 = self.region_map.zones_of_region(0)
        in_group = np.isin(zones, group0).mean()
        # About delta + (1-delta) * |group|/|zones| = 0.5 + 0.5*0.5 = 0.75.
        assert 0.65 < in_group < 0.85

    def test_weights_respected(self):
        weights = np.ones(8)
        weights[3] = 50.0
        regions = np.zeros(4000, dtype=int)
        zones = correlated_zone_choice(regions, weights, 0.0, self.region_map, seed=0)
        assert (zones == 3).mean() > 0.5

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            correlated_zone_choice(np.array([0]), self.weights, 1.5, self.region_map)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            correlated_zone_choice(np.array([0]), np.ones(3), 0.5, self.region_map)
        with pytest.raises(ValueError):
            correlated_zone_choice(np.array([0]), np.zeros(8), 0.5, self.region_map)

    def test_deterministic(self):
        regions = np.array([0, 1, 0, 1])
        a = correlated_zone_choice(regions, self.weights, 0.7, self.region_map, seed=9)
        b = correlated_zone_choice(regions, self.weights, 0.7, self.region_map, seed=9)
        np.testing.assert_array_equal(a, b)
