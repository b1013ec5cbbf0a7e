"""Tests for repro.world.clients — client population snapshots and churn primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.clients import ClientPopulation


@pytest.fixture()
def population() -> ClientPopulation:
    return ClientPopulation(nodes=np.array([5, 6, 7, 8, 9]), zones=np.array([0, 0, 1, 2, 2]))


class TestConstruction:
    def test_num_clients(self, population):
        assert population.num_clients == 5

    def test_parallel_arrays_required(self):
        with pytest.raises(ValueError):
            ClientPopulation(nodes=np.array([1, 2]), zones=np.array([0]))

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            ClientPopulation(nodes=np.array([-1]), zones=np.array([0]))
        with pytest.raises(ValueError):
            ClientPopulation(nodes=np.array([1]), zones=np.array([-2]))

    def test_empty_population_allowed(self):
        empty = ClientPopulation(nodes=np.array([], dtype=int), zones=np.array([], dtype=int))
        assert empty.num_clients == 0


class TestChurnTransforms:
    def test_with_joined_appends(self, population):
        joined = population.with_joined(np.array([10, 11]), np.array([3, 3]))
        assert joined.num_clients == 7
        np.testing.assert_array_equal(joined.nodes[-2:], [10, 11])
        # original untouched
        assert population.num_clients == 5

    def test_with_joined_shape_mismatch(self, population):
        with pytest.raises(ValueError):
            population.with_joined(np.array([1, 2]), np.array([0]))

    def test_with_moved_changes_zone_only(self, population):
        moved = population.with_moved(np.array([0, 4]), np.array([3, 0]))
        np.testing.assert_array_equal(moved.zones, [3, 0, 1, 2, 0])
        np.testing.assert_array_equal(moved.nodes, population.nodes)

    def test_with_moved_shape_mismatch(self, population):
        with pytest.raises(ValueError):
            population.with_moved(np.array([0]), np.array([1, 2]))

    def test_with_moved_out_of_range(self, population):
        with pytest.raises(ValueError):
            population.with_moved(np.array([7]), np.array([0]))

    def test_subset_of_survivors_preserves_order(self, population):
        # A leave batch keeps the survivors in their original relative order.
        survivors = np.setdiff1d(np.arange(population.num_clients), [1, 3])
        remaining = population.subset(survivors)
        np.testing.assert_array_equal(remaining.nodes, [5, 7, 9])
        np.testing.assert_array_equal(remaining.zones, [0, 1, 2])

    def test_subset_out_of_range(self, population):
        with pytest.raises(IndexError):
            population.subset(np.array([99]))

    def test_subset_reorders(self, population):
        sub = population.subset(np.array([4, 0]))
        np.testing.assert_array_equal(sub.nodes, [9, 5])
        np.testing.assert_array_equal(sub.zones, [2, 0])
