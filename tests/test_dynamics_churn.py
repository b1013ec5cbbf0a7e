"""Tests for repro.dynamics.churn — random churn generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.events import apply_churn
from repro.world import build_scenario
from tests.conftest import make_small_config


class TestChurnSpec:
    def test_paper_defaults(self):
        spec = ChurnSpec()
        assert (spec.num_joins, spec.num_leaves, spec.num_moves) == (200, 200, 200)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ChurnSpec(num_joins=-1)


class TestGenerateChurn:
    def test_counts_match_spec(self, small_scenario):
        spec = ChurnSpec(num_joins=20, num_leaves=15, num_moves=10)
        batch = generate_churn(small_scenario, spec, seed=0)
        assert batch.num_joins == 20
        assert batch.num_leaves == 15
        assert batch.num_moves == 10

    def test_movers_and_leavers_disjoint(self, small_scenario):
        batch = generate_churn(small_scenario, ChurnSpec(50, 50, 50), seed=1)
        assert np.intersect1d(batch.leave_indices, batch.move_indices).size == 0

    def test_moves_go_to_different_zone(self, small_scenario):
        batch = generate_churn(small_scenario, ChurnSpec(0, 0, 40), seed=2)
        current = small_scenario.population.zones[batch.move_indices]
        assert (batch.move_zones != current).all()

    def test_joins_within_world_bounds(self, small_scenario):
        batch = generate_churn(small_scenario, ChurnSpec(100, 0, 0), seed=4)
        assert batch.join_zones.max() < small_scenario.num_zones
        assert batch.join_nodes.max() < small_scenario.topology.num_nodes

    def test_oversized_churn_clamped_to_population(self, small_scenario):
        n = small_scenario.num_clients
        batch = generate_churn(small_scenario, ChurnSpec(0, n + 500, n + 500), seed=5)
        assert batch.num_leaves == n
        assert batch.num_moves == 0  # nothing left to move after everyone leaves

    def test_deterministic(self, small_scenario):
        a = generate_churn(small_scenario, ChurnSpec(10, 10, 10), seed=9)
        b = generate_churn(small_scenario, ChurnSpec(10, 10, 10), seed=9)
        np.testing.assert_array_equal(a.leave_indices, b.leave_indices)
        np.testing.assert_array_equal(a.join_zones, b.join_zones)
        np.testing.assert_array_equal(a.move_zones, b.move_zones)

    def test_generated_batch_applies_cleanly(self, small_scenario):
        spec = ChurnSpec(num_joins=30, num_leaves=20, num_moves=25)
        batch = generate_churn(small_scenario, spec, seed=6)
        result = apply_churn(small_scenario.population, batch)
        assert result.population.num_clients == small_scenario.num_clients + 30 - 20


@pytest.fixture(scope="module", params=[1, 2, 3, 12], ids=lambda z: f"{z}z")
def zoned_scenario(request):
    """The small scenario's world cut into 1, 2, 3 or 12 zones."""
    return build_scenario(make_small_config(num_zones=request.param), seed=3)


class TestMoveDestinations:
    """Movers go to a zone drawn uniformly from the zones other than their own."""

    def test_movers_leave_their_zone(self, zoned_scenario):
        batch = generate_churn(zoned_scenario, ChurnSpec(0, 0, 100), seed=0)
        origins = zoned_scenario.population.zones[batch.move_indices]
        assert ((batch.move_zones >= 0) & (batch.move_zones < zoned_scenario.num_zones)).all()
        if zoned_scenario.num_zones == 1:
            np.testing.assert_array_equal(batch.move_zones, origins)  # nowhere else to go
        else:
            assert (batch.move_zones != origins).all()

    def test_every_other_zone_is_reached(self, zoned_scenario):
        num_zones = zoned_scenario.num_zones
        reached = np.zeros((num_zones, num_zones), dtype=bool)
        for seed in range(20):
            batch = generate_churn(zoned_scenario, ChurnSpec(0, 0, 100), seed=seed)
            origins = zoned_scenario.population.zones[batch.move_indices]
            reached[origins, batch.move_zones] = True
        occupied = np.flatnonzero(np.bincount(zoned_scenario.population.zones, minlength=num_zones))
        expected = np.ones((num_zones, num_zones), dtype=bool)
        if num_zones > 1:
            np.fill_diagonal(expected, False)
        np.testing.assert_array_equal(reached[occupied], expected[occupied])
