"""Tests for repro.world.zones — the zone-partitioned virtual world."""

from __future__ import annotations

import dataclasses

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
