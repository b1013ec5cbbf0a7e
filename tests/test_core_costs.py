"""Tests for repro.core.costs — the IAP and RAP cost matrices (Equations 3 and 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import (
    delays_to_targets,
    initial_cost_matrix,
    refined_cost_candidates,
    refined_cost_matrix,
    refined_cost_rows,
)
from repro.utils.chunks import row_chunks
from tests.conftest import make_wide_sparse_instance


class TestInitialCostMatrix:
    def test_known_values(self, tiny_instance):
        cost = initial_cost_matrix(tiny_instance)  # (servers, zones)
        assert cost.shape == (3, 4)
        # Zone 0 on server 0: both clients within 100 ms → 0 misses;
        # on servers 1, 2: both miss.
        np.testing.assert_allclose(cost[:, 0], [0, 2, 2])
        # Zone 3 (clients at 120/60/300 ms): misses on servers 0 and 2 only.
        np.testing.assert_allclose(cost[:, 3], [2, 0, 2])

    def test_cost_counts_clients_not_bandwidth(self, tiny_instance):
        cost = initial_cost_matrix(tiny_instance)
        assert cost.max() <= tiny_instance.zone_populations().max()
        assert (cost >= 0).all()

    def test_cost_depends_on_delay_bound(self, tiny_instance):
        generous = initial_cost_matrix(tiny_instance.with_delay_bound(1000.0))
        np.testing.assert_allclose(generous, 0.0)
        strict = initial_cost_matrix(tiny_instance.with_delay_bound(10.0))
        np.testing.assert_allclose(strict.sum(axis=0), 3 * tiny_instance.zone_populations())

    def test_boundary_is_inclusive(self, tiny_instance):
        # A delay exactly equal to D satisfies QoS ("> D" counts as a miss).
        cost = initial_cost_matrix(tiny_instance.with_delay_bound(50.0))
        np.testing.assert_allclose(cost[0, 0], 0.0)


class TestRefinedCostMatrix:
    def test_known_values(self, tiny_instance):
        zone_to_server = np.array([0, 1, 2, 0])  # zone 3 hosted by server 0
        cost = refined_cost_matrix(tiny_instance, zone_to_server)  # (servers, clients)
        assert cost.shape == (3, 8)
        # Client 6 (zone 3, target server 0):
        #   contact 0: 120 + 0 - 100 = 20
        #   contact 1: 60 + 30 - 100 = 0 (within bound → clamped to 0)
        #   contact 2: 300 + 40 - 100 = 240
        np.testing.assert_allclose(cost[:, 6], [20.0, 0.0, 240.0])
        # Client 0 (zone 0, target 0) is fine directly.
        assert cost[0, 0] == 0.0

    def test_all_non_negative(self, tiny_instance):
        cost = refined_cost_matrix(tiny_instance, np.array([0, 1, 2, 1]))
        assert (cost >= 0).all()

    def test_shape_validation(self, tiny_instance):
        with pytest.raises(ValueError):
            refined_cost_matrix(tiny_instance, np.array([0, 1]))
        with pytest.raises(ValueError):
            refined_cost_matrix(tiny_instance, np.array([0, 1, 2, 9]))


def bad_indices(instance, case: str):
    """A ``(zone_to_server, clients)`` pair every refined-cost builder rejects."""
    zone_to_server = np.arange(instance.num_zones) % instance.num_servers
    clients = np.array([0])
    if case == "short zone map":
        zone_to_server = zone_to_server[:-1]
    elif case == "server out of range":
        zone_to_server[-1] = instance.num_servers
    elif case == "client out of range":
        clients = np.array([0, instance.num_clients])
    elif case == "2-D clients":
        clients = np.array([[0, 1]])
    return zone_to_server, clients


#: Each rejected case and the fragment of its error message.
BAD_INDEX_CASES = {
    "short zone map": "must have shape",
    "server out of range": "invalid server indices",
    "client out of range": "invalid client indices",
    "2-D clients": "1-D index array",
}


class TestRefinedCostColumns:
    """``refined_cost_rows(...).T`` is the column slice of the dense matrix."""

    def test_matches_full_matrix_slice(self, tiny_instance):
        zone_to_server = np.array([0, 1, 2, 0])
        full = refined_cost_matrix(tiny_instance, zone_to_server)
        for clients in ([6, 7], [0], [7, 2, 4], list(range(8))):
            clients = np.asarray(clients)
            columns = refined_cost_rows(tiny_instance, zone_to_server, clients).T
            # Bit-wise equality: GreC's desirability must not change when the
            # dense matrix is no longer materialised.
            np.testing.assert_array_equal(columns, full[:, clients])

    def test_matches_slice_on_small_instance(self, small_instance):
        rng = np.random.default_rng(3)
        zone_to_server = rng.integers(0, small_instance.num_servers, small_instance.num_zones)
        clients = rng.choice(small_instance.num_clients, size=17, replace=False)
        np.testing.assert_array_equal(
            refined_cost_rows(small_instance, zone_to_server, clients).T,
            refined_cost_matrix(small_instance, zone_to_server)[:, clients],
        )

    def test_empty_client_list(self, tiny_instance):
        columns = refined_cost_rows(tiny_instance, np.array([0, 1, 2, 0]), np.array([], int)).T
        assert columns.shape == (3, 0)

    def test_validation(self, tiny_instance):
        for case, message in BAD_INDEX_CASES.items():
            with pytest.raises(ValueError, match=message):
                refined_cost_rows(tiny_instance, *bad_indices(tiny_instance, case))


class TestRefinedCostCandidates:
    def test_match_refined_cost_rows_across_chunks(self):
        # 2,500 needy clients x 64 candidates spans three row chunks, and
        # the 10 ms delay grid makes many refined costs tie.
        instance = make_wide_sparse_instance()
        rng = np.random.default_rng(4)
        zone_to_server = rng.integers(0, instance.num_servers, instance.num_zones)
        clients = rng.permutation(instance.num_clients)
        servers, costs = refined_cost_candidates(instance, zone_to_server, clients)
        assert len(list(row_chunks(*costs.shape))) >= 3
        rows = refined_cost_rows(instance, zone_to_server, clients)
        np.testing.assert_array_equal(costs, np.take_along_axis(rows, servers, axis=1))

    def test_validation(self):
        instance = make_wide_sparse_instance()
        for case, message in BAD_INDEX_CASES.items():
            with pytest.raises(ValueError, match=message):
                refined_cost_candidates(instance, *bad_indices(instance, case))

    def test_none_on_dense_instances(self, small_instance):
        zone_to_server = np.zeros(small_instance.num_zones, dtype=np.int64)
        assert refined_cost_candidates(small_instance, zone_to_server, np.arange(3)) is None


class TestInitialCostAggregation:
    def test_matches_scatter_add_reference(self, small_instance):
        # The sort + reduceat segment reduction must agree exactly with the
        # np.add.at scatter-add it replaced.
        reference = np.zeros((small_instance.num_zones, small_instance.num_servers))
        over = (
            small_instance.client_server_delays > small_instance.delay_bound
        ).astype(np.float64)
        np.add.at(reference, small_instance.client_zones, over)
        np.testing.assert_array_equal(initial_cost_matrix(small_instance), reference.T)

    def test_empty_zones_contribute_zero(self):
        from tests.conftest import make_tiny_instance

        instance = make_tiny_instance()
        # Rebuild with extra trailing zones that no client belongs to.
        from repro.core.problem import CAPInstance

        padded = CAPInstance(
            client_server_delays=instance.client_server_delays,
            server_server_delays=instance.server_server_delays,
            client_zones=instance.client_zones,
            client_demands=instance.client_demands,
            server_capacities=instance.server_capacities,
            delay_bound=instance.delay_bound,
            num_zones=instance.num_zones + 3,
        )
        cost = initial_cost_matrix(padded)
        assert cost.shape == (3, 7)
        np.testing.assert_array_equal(cost[:, 4:], 0.0)
        np.testing.assert_array_equal(cost[:, :4], initial_cost_matrix(instance))


class TestDelaysToTargets:
    def test_direct_delays(self, tiny_instance):
        zone_to_server = np.array([0, 1, 2, 0])
        delays = delays_to_targets(tiny_instance, zone_to_server)
        np.testing.assert_allclose(delays, [50, 50, 50, 50, 50, 50, 120, 120])

    def test_forwarded_delays(self, tiny_instance):
        zone_to_server = np.array([0, 1, 2, 0])
        contacts = np.array([0, 0, 1, 1, 2, 2, 1, 0])
        delays = delays_to_targets(tiny_instance, zone_to_server, contacts)
        # Client 6 forwards through server 1: 60 + d(s1, s0)=30 → 90.
        assert delays[6] == pytest.approx(90.0)
        # Client 7 stays direct on its target server 0: 120.
        assert delays[7] == pytest.approx(120.0)

    def test_contact_equals_target_matches_direct(self, tiny_instance):
        zone_to_server = np.array([0, 1, 2, 0])
        contacts = zone_to_server[tiny_instance.client_zones]
        np.testing.assert_allclose(
            delays_to_targets(tiny_instance, zone_to_server, contacts),
            delays_to_targets(tiny_instance, zone_to_server),
        )

    def test_contact_shape_validation(self, tiny_instance):
        with pytest.raises(ValueError):
            delays_to_targets(tiny_instance, np.array([0, 1, 2, 0]), np.array([0, 1]))
