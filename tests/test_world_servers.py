"""Tests for repro.world.servers — server fleet and capacity allocation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.servers import MBPS, ServerSet, allocate_capacities


class TestServerSet:
    def test_basic_properties(self):
        servers = ServerSet(nodes=np.array([3, 8, 11]), capacities=np.array([1e7, 2e7, 3e7]))
        assert servers.num_servers == 3
        assert servers.total_capacity == pytest.approx(6e7)
        assert servers.total_capacity_mbps == pytest.approx(60.0)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            ServerSet(nodes=np.array([1, 2]), capacities=np.array([1e6]))

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            ServerSet(nodes=np.array([1]), capacities=np.array([0.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ServerSet(nodes=np.array([], dtype=int), capacities=np.array([]))


class TestAllocateCapacities:
    def test_sums_to_total(self):
        caps = allocate_capacities(20, 500.0, seed=0)
        assert caps.sum() == pytest.approx(500.0 * MBPS)
        assert caps.shape == (20,)

    def test_respects_minimum(self):
        caps = allocate_capacities(20, 500.0, min_capacity_mbps=10.0, seed=1)
        assert (caps >= 10.0 * MBPS - 1e-6).all()

    def test_minimum_covering_the_total_splits_evenly(self):
        caps = allocate_capacities(4, 40.0, min_capacity_mbps=10.0, seed=2)
        np.testing.assert_array_equal(caps, np.full(4, 10.0 * MBPS))

    def test_deterministic(self):
        a = allocate_capacities(10, 200.0, seed=7)
        b = allocate_capacities(10, 200.0, seed=7)
        np.testing.assert_allclose(a, b)

    def test_infeasible_minimum(self):
        with pytest.raises(ValueError):
            allocate_capacities(10, 50.0, min_capacity_mbps=10.0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            allocate_capacities(0, 100.0)
        with pytest.raises(ValueError):
            allocate_capacities(5, -1.0)


def test_negative_server_nodes_rejected():
    import numpy as np
    import pytest
    from repro.world.servers import ServerSet

    with pytest.raises(ValueError, match="non-negative"):
        ServerSet(nodes=np.array([-1, 3]), capacities=np.array([1e6, 1e6]))
