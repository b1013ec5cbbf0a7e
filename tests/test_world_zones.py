"""Tests for repro.world.zones — the zone-partitioned virtual world."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.world.zones import VirtualWorld


class TestConstruction:
    def test_invalid_zone_count(self):
        with pytest.raises(ValueError):
            VirtualWorld(num_zones=0)

    @pytest.mark.parametrize("num_zones", [-1, -80])
    def test_negative_zone_count_rejected(self, num_zones):
        with pytest.raises(ValueError, match="num_zones must be >= 1"):
            VirtualWorld(num_zones=num_zones)

    def test_holds_only_its_zone_count(self):
        assert [f.name for f in dataclasses.fields(VirtualWorld)] == ["num_zones"]

    def test_frozen(self):
        world = VirtualWorld(num_zones=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.num_zones = 4  # type: ignore[misc]


class TestPopulations:
    def test_counts(self):
        world = VirtualWorld(num_zones=4)
        pops = world.zone_populations(np.array([0, 0, 1, 3, 3, 3]))
        np.testing.assert_array_equal(pops, [2, 1, 0, 3])

    def test_empty_population(self):
        world = VirtualWorld(num_zones=3)
        np.testing.assert_array_equal(world.zone_populations(np.array([], dtype=int)), [0, 0, 0])

    def test_out_of_range_rejected(self):
        world = VirtualWorld(num_zones=3)
        with pytest.raises(ValueError):
            world.zone_populations(np.array([0, 3]))
