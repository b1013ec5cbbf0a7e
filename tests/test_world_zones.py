"""Tests for repro.world.zones — the zone-partitioned virtual world grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.zones import VirtualWorld


class TestConstruction:
    def test_grid_covers_all_zones(self):
        world = VirtualWorld(num_zones=12)
        assert world.rows * world.cols >= 12

    def test_explicit_grid(self):
        world = VirtualWorld(num_zones=12, rows=3, cols=4)
        assert (world.rows, world.cols) == (3, 4)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            VirtualWorld(num_zones=10, rows=2, cols=4)

    def test_invalid_zone_count(self):
        with pytest.raises(ValueError):
            VirtualWorld(num_zones=0)

    def test_prime_zone_count(self):
        world = VirtualWorld(num_zones=13)
        assert world.rows * world.cols >= 13


class TestCoordinates:
    def test_round_trip(self):
        world = VirtualWorld(num_zones=12, rows=3, cols=4)
        for zone in range(12):
            row, col = world.zone_coordinates(zone)
            assert row * world.cols + col == zone

    def test_out_of_world(self):
        world = VirtualWorld(num_zones=6, rows=2, cols=3)
        with pytest.raises(ValueError):
            world.zone_coordinates(6)

    def test_all_zones(self):
        np.testing.assert_array_equal(VirtualWorld(num_zones=4).all_zones(), [0, 1, 2, 3])


class TestNeighbors:
    def test_interior_zone_has_four_neighbors(self):
        world = VirtualWorld(num_zones=9, rows=3, cols=3)
        assert sorted(world.neighbors(4)) == [1, 3, 5, 7]

    def test_corner_zone_has_two_neighbors(self):
        world = VirtualWorld(num_zones=9, rows=3, cols=3)
        assert sorted(world.neighbors(0)) == [1, 3]

    def test_neighbors_symmetric(self):
        world = VirtualWorld(num_zones=12, rows=3, cols=4)
        for zone in range(12):
            for other in world.neighbors(zone):
                assert zone in world.neighbors(other)

    def test_single_zone_world(self):
        assert VirtualWorld(num_zones=1).neighbors(0) == []

    def test_neighbors_exclude_nonexistent_cells(self):
        # 7 zones on a grid whose last row is partially filled.
        world = VirtualWorld(num_zones=7)
        for zone in range(7):
            assert all(n < 7 for n in world.neighbors(zone))


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
