"""Tests for repro.world.correlation — the physical↔virtual correlation model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.correlation import RegionZoneMap, correlated_zone_choice
from tests.reference.zone_draw import balanced_region_of_zone
from tests.reference.zone_draw import correlated_zone_choice as per_region_choice


def balanced(num_zones: int, region_ids: np.ndarray, seed) -> RegionZoneMap:
    """A balanced map over the distinct ``region_ids``, dealt as ``ZoneSamplingPlan`` deals."""
    regions = np.unique(np.asarray(region_ids, dtype=np.int64))
    deal = regions[np.arange(num_zones) % regions.size]
    return RegionZoneMap.balanced_prepared(num_zones, regions, deal, seed=seed)


class TestRegionZoneMap:
    def test_balanced_partition_sizes(self):
        regions = np.array([0, 1, 2, 3])
        mapping = balanced(10, regions, seed=0)
        sizes = [mapping.zones_of_region(r).size for r in range(4)]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_every_zone_assigned_once(self):
        mapping = balanced(12, np.array([0, 1, 2]), seed=1)
        all_zones = np.concatenate([mapping.zones_of_region(r) for r in range(3)])
        assert sorted(all_zones.tolist()) == list(range(12))

    def test_more_regions_than_zones_never_empty(self):
        mapping = balanced(3, np.arange(10), seed=0)
        for region in range(10):
            assert mapping.zones_of_region(region).size >= 1

    def test_region_of_zone_validation(self):
        with pytest.raises(ValueError):
            RegionZoneMap(num_zones=2, region_of_zone=np.array([0, 7]), regions=np.array([0, 1]))


class TestCorrelatedZoneChoice:
    def setup_method(self):
        self.region_map = balanced(8, np.array([0, 1]), seed=0)
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


#: Zone weight shapes: uniform, hot zones at 10x (the paper's clustered
#: virtual world) and sparse weights, where a region's whole preference
#: group can weigh 0 and its draw falls back to uniform.
WEIGHT_KINDS = ("uniform", "hot", "sparse")


@st.composite
def draw_cases(draw):
    num_zones = draw(st.integers(1, 40))
    # Up to 60 region ids with gaps and repeats, so often more regions than
    # zones (the zones_of_region fallback).
    num_ids = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    region_ids = rng.integers(0, 2 * num_ids, size=num_ids)
    kind = draw(st.sampled_from(WEIGHT_KINDS))
    if kind == "uniform":
        weights = np.ones(num_zones)
    elif kind == "hot":
        weights = np.where(rng.random(num_zones) < 0.1, 10.0, 1.0)
    else:
        weights = rng.random(num_zones) * (rng.random(num_zones) < 0.3)
        weights[rng.integers(num_zones)] = 1.0
    clients = rng.choice(region_ids, size=draw(st.integers(0, 300)))
    delta = draw(st.sampled_from((0.0, 0.3, 1.0)))
    return num_zones, region_ids, weights, clients, delta, draw(st.integers(0, 2**32 - 1))


class TestGroupedDrawMatchesPerRegionLoop:
    """The grouped draw is byte for byte the per-region loop it replaced."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(case=draw_cases())
    def test_zones_and_generator_state(self, case):
        num_zones, region_ids, weights, clients, delta, seed = case
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        region_map = balanced(num_zones, region_ids, seed=rng)
        region_of_zone = balanced_region_of_zone(num_zones, region_ids, reference_rng)
        assert region_map.region_of_zone.tobytes() == region_of_zone.tobytes()
        zones = correlated_zone_choice(clients, weights, delta, region_map, seed=rng)
        expected = per_region_choice(clients, weights, delta, region_of_zone, reference_rng)
        assert zones.dtype == expected.dtype and zones.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state
