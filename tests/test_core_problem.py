"""Tests for repro.core.problem — the CAPInstance problem container."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.problem import CAPInstance
from repro.topology.delay_backends import CompactDelayMatrix
from tests.conftest import make_tiny_instance


class TestConstruction:
    def test_dimensions(self, tiny_instance):
        assert tiny_instance.num_clients == 8
        assert tiny_instance.num_servers == 3
        assert tiny_instance.num_zones == 4

    def test_arrays_cast_to_float_and_int(self, tiny_instance):
        # A plain delay array is cast and wrapped as an unrestricted matrix
        # with one node per client.
        delays = tiny_instance.client_server_delays
        assert isinstance(delays, CompactDelayMatrix) and delays.is_unrestricted
        assert delays.node_server.dtype == np.float64
        np.testing.assert_array_equal(delays.client_nodes, np.arange(8))
        assert delays.client_zones is tiny_instance.client_zones
        assert tiny_instance.client_zones.dtype == np.int64

    def test_bad_delay_matrix_shape(self):
        with pytest.raises(ValueError):
            CAPInstance(
                client_server_delays=np.zeros(5),
                server_server_delays=np.zeros((2, 2)),
                client_zones=np.zeros(5, dtype=int),
                client_demands=np.ones(5),
                server_capacities=np.ones(2),
                delay_bound=100.0,
                num_zones=2,
            )

    def test_mismatched_server_mesh(self):
        with pytest.raises(ValueError):
            CAPInstance(
                client_server_delays=np.ones((4, 3)),
                server_server_delays=np.zeros((2, 2)),
                client_zones=np.zeros(4, dtype=int),
                client_demands=np.ones(4),
                server_capacities=np.ones(3),
                delay_bound=100.0,
                num_zones=1,
            )

    def test_zone_ids_out_of_range(self):
        with pytest.raises(ValueError):
            CAPInstance(
                client_server_delays=np.ones((2, 2)),
                server_server_delays=np.zeros((2, 2)),
                client_zones=np.array([0, 5]),
                client_demands=np.ones(2),
                server_capacities=np.ones(2),
                delay_bound=100.0,
                num_zones=2,
            )

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            CAPInstance(
                client_server_delays=np.full((2, 2), -1.0),
                server_server_delays=np.zeros((2, 2)),
                client_zones=np.zeros(2, dtype=int),
                client_demands=np.ones(2),
                server_capacities=np.ones(2),
                delay_bound=100.0,
                num_zones=1,
            )

    def test_non_positive_demand_rejected(self):
        # The paper requires RT(c) > 0 for every client.
        with pytest.raises(ValueError):
            CAPInstance(
                client_server_delays=np.ones((2, 2)),
                server_server_delays=np.zeros((2, 2)),
                client_zones=np.zeros(2, dtype=int),
                client_demands=np.array([1.0, 0.0]),
                server_capacities=np.ones(2),
                delay_bound=100.0,
                num_zones=1,
            )

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            make_tiny_instance(capacities=(10.0, 0.0, 10.0))

    def test_invalid_delay_bound(self):
        with pytest.raises(ValueError):
            make_tiny_instance(delay_bound=0.0)


class TestDerivedQuantities:
    def test_zone_demands(self, tiny_instance):
        np.testing.assert_allclose(tiny_instance.zone_demands(), [20.0, 20.0, 20.0, 20.0])

    def test_zone_populations(self, tiny_instance):
        np.testing.assert_array_equal(tiny_instance.zone_populations(), [2, 2, 2, 2])

    @pytest.mark.parametrize("method", ["zone_demands", "zone_populations"])
    def test_zone_caches_fill_once_read_only(self, tiny_instance, method):
        first = getattr(tiny_instance, method)()
        assert getattr(tiny_instance, method)() is first
        assert not first.flags.writeable

    def test_totals(self, tiny_instance):
        assert tiny_instance.total_demand() == pytest.approx(80.0)
        assert tiny_instance.total_capacity() == pytest.approx(3000.0)


class TestTransformations:
    def test_from_scenario(self, small_scenario):
        instance = CAPInstance.from_scenario(small_scenario)
        assert instance.num_clients == small_scenario.num_clients
        assert instance.num_servers == small_scenario.num_servers
        assert instance.delay_bound == small_scenario.delay_bound_ms
        assert instance.client_server_delays is small_scenario.client_server_delays

    def test_from_scenario_delay_bound_override(self, small_scenario):
        instance = CAPInstance.from_scenario(small_scenario, delay_bound=123.0)
        assert instance.delay_bound == 123.0

    def test_with_delays_substitutes_only_given_matrices(self, tiny_instance):
        new_cs = tiny_instance.client_server_delays.toarray() + 5.0
        swapped = tiny_instance.with_delays(client_server_delays=new_cs)
        np.testing.assert_allclose(swapped.client_server_delays.toarray(), new_cs)
        np.testing.assert_allclose(
            swapped.server_server_delays, tiny_instance.server_server_delays
        )
        # The original is untouched (immutability).
        assert tiny_instance.delay_pairs(0, 0) == 50.0

    def test_replaced_delay_bound(self, tiny_instance):
        assert dataclasses.replace(tiny_instance, delay_bound=200.0).delay_bound == 200.0
        assert tiny_instance.delay_bound == 100.0

    def test_frozen(self, tiny_instance):
        with pytest.raises(AttributeError):
            tiny_instance.delay_bound = 50.0  # type: ignore[misc]
