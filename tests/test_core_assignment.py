"""Tests for repro.core.assignment — ZoneAssignment / Assignment result objects."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.assignment import (
    CAPACITY_TOLERANCE,
    Assignment,
    ZoneAssignment,
    server_loads,
    zone_server_loads,
)
from repro.core.validation import validate_assignment


@pytest.fixture()
def zone_map():
    return np.array([0, 1, 2, 0])


@pytest.fixture()
def direct_assignment(tiny_instance, zone_map):
    """Contact = target for every client (a VirC-style solution)."""
    contacts = zone_map[tiny_instance.client_zones]
    return Assignment(zone_to_server=zone_map, contact_of_client=contacts, algorithm="test")


@pytest.fixture()
def forwarded_assignment(tiny_instance, zone_map):
    """Clients 6 and 7 (zone 3, hosted on server 0) forward through server 1."""
    contacts = zone_map[tiny_instance.client_zones].copy()
    contacts[6] = 1
    contacts[7] = 1
    return Assignment(zone_to_server=zone_map, contact_of_client=contacts, algorithm="fwd")


class TestZoneAssignment:
    def test_targets_of_clients(self, tiny_instance, zone_map):
        za = ZoneAssignment(zone_to_server=zone_map, algorithm="x")
        np.testing.assert_array_equal(
            za.targets_of_clients(tiny_instance), [0, 0, 1, 1, 2, 2, 0, 0]
        )

    def test_server_zone_loads(self, tiny_instance, zone_map):
        za = ZoneAssignment(zone_to_server=zone_map)
        np.testing.assert_allclose(za.server_zone_loads(tiny_instance), [40.0, 20.0, 20.0])

    def test_unassigned_zone_rejected(self):
        with pytest.raises(ValueError):
            ZoneAssignment(zone_to_server=np.array([0, -1]))

    def test_num_zones(self, zone_map):
        assert ZoneAssignment(zone_to_server=zone_map).num_zones == 4


class TestAssignmentMetrics:
    def test_client_delays_direct(self, tiny_instance, direct_assignment):
        np.testing.assert_allclose(
            direct_assignment.client_delays(tiny_instance),
            [50, 50, 50, 50, 50, 50, 120, 120],
        )

    def test_client_delays_forwarded(self, tiny_instance, forwarded_assignment):
        delays = forwarded_assignment.client_delays(tiny_instance)
        assert delays[6] == pytest.approx(90.0)
        assert delays[7] == pytest.approx(90.0)

    def test_pqos(self, tiny_instance, direct_assignment, forwarded_assignment):
        assert direct_assignment.pqos(tiny_instance) == pytest.approx(6 / 8)
        assert forwarded_assignment.pqos(tiny_instance) == pytest.approx(1.0)

    def test_qos_mask(self, tiny_instance, direct_assignment):
        mask = direct_assignment.qos_mask(tiny_instance)
        assert mask.sum() == 6
        assert not mask[6] and not mask[7]

    @pytest.mark.parametrize(
        ("delay_bound", "expected_qos"), [(119.99, 6), (120.0, 8), (120.01, 8), (50.0, 6)]
    )
    def test_qos_threshold_inclusive(self, zone_map, delay_bound, expected_qos):
        # Zone 3's clients sit exactly 120 ms from their target; the paper's
        # QoS condition is d <= D, so the bound itself still counts as QoS.
        from repro.core.measures import ensure_measures
        from tests.conftest import make_tiny_instance

        instance = make_tiny_instance(delay_bound=delay_bound)
        contacts = zone_map[instance.client_zones]
        assignment = Assignment(zone_to_server=zone_map, contact_of_client=contacts)
        assert int(assignment.qos_mask(instance).sum()) == expected_qos
        assert ensure_measures(assignment, instance).qos_count == expected_qos
        assert assignment.pqos(instance) == pytest.approx(expected_qos / 8)

    def test_forwarded_mask(self, tiny_instance, direct_assignment, forwarded_assignment):
        assert not direct_assignment.forwarded_mask(tiny_instance).any()
        np.testing.assert_array_equal(
            np.flatnonzero(forwarded_assignment.forwarded_mask(tiny_instance)), [6, 7]
        )

    def test_server_loads_direct(self, tiny_instance, direct_assignment):
        np.testing.assert_allclose(
            direct_assignment.server_loads(tiny_instance), [40.0, 20.0, 20.0]
        )

    def test_server_loads_with_forwarding(self, tiny_instance, forwarded_assignment):
        # Server 1 also carries 2 × RT for each of the two forwarded clients.
        np.testing.assert_allclose(
            forwarded_assignment.server_loads(tiny_instance), [40.0, 60.0, 20.0]
        )

    def test_resource_utilization(self, tiny_instance, direct_assignment, forwarded_assignment):
        assert direct_assignment.resource_utilization(tiny_instance) == pytest.approx(80 / 3000)
        assert forwarded_assignment.resource_utilization(tiny_instance) == pytest.approx(
            120 / 3000
        )

    def test_capacity_feasibility(self, tiny_instance, forwarded_assignment):
        assert forwarded_assignment.is_capacity_feasible(tiny_instance)
        tight = dataclasses.replace(tiny_instance, delay_bound=100.0)
        # Shrink capacities below the loads to make it infeasible.
        from tests.conftest import make_tiny_instance

        tiny_overloaded = make_tiny_instance(capacities=(30.0, 30.0, 30.0))
        assert not forwarded_assignment.is_capacity_feasible(tiny_overloaded)
        del tight

    @pytest.mark.parametrize(
        "overshoot, feasible",
        [(CAPACITY_TOLERANCE / 2, True), (2 * CAPACITY_TOLERANCE, False)],
        ids=["within", "beyond"],
    )
    def test_feasibility_and_validation_share_the_tolerance(
        self, direct_assignment, overshoot, feasible
    ):
        from tests.conftest import make_tiny_instance

        # Direct contacts load the servers [40, 20, 20]; server 0's capacity
        # sits ``overshoot`` (relative) below its load.
        instance = make_tiny_instance(capacities=(40.0 / (1.0 + overshoot), 1000.0, 1000.0))
        assert direct_assignment.is_capacity_feasible(instance) is feasible
        assert validate_assignment(instance, direct_assignment).ok is feasible

    def test_empty_instance_pqos_is_one(self):
        from tests.conftest import make_tiny_instance  # noqa: F401 (documentation import)

        import numpy as np
        from repro.core.problem import CAPInstance

        empty = CAPInstance(
            client_server_delays=np.zeros((0, 2)),
            server_server_delays=np.zeros((2, 2)),
            client_zones=np.zeros(0, dtype=int),
            client_demands=np.zeros(0),
            server_capacities=np.ones(2),
            delay_bound=100.0,
            num_zones=1,
        )
        assignment = Assignment(
            zone_to_server=np.array([0]), contact_of_client=np.zeros(0, dtype=int)
        )
        assert assignment.pqos(empty) == 1.0


class TestAssignmentBookkeeping:
    def test_with_algorithm_renames_only(self, direct_assignment):
        renamed = direct_assignment.with_algorithm("grez-grec")
        assert type(renamed) is Assignment
        assert renamed.algorithm == "grez-grec"
        assert renamed.zone_to_server is direct_assignment.zone_to_server
        assert renamed.contact_of_client is direct_assignment.contact_of_client
        assert renamed.capacity_exceeded == direct_assignment.capacity_exceeded
        assert renamed.runtime_seconds == direct_assignment.runtime_seconds
        assert renamed.metadata == direct_assignment.metadata
        assert renamed.metadata is not direct_assignment.metadata
        assert direct_assignment.algorithm == "test"

    def test_with_algorithm_does_not_revalidate(self, direct_assignment, monkeypatch):
        def fail(self):
            raise AssertionError("with_algorithm re-ran __post_init__")

        monkeypatch.setattr(Assignment, "__post_init__", fail)
        assert direct_assignment.with_algorithm("grez-grec").algorithm == "grez-grec"

    def test_negative_contact_rejected(self, zone_map):
        with pytest.raises(ValueError):
            Assignment(zone_to_server=zone_map, contact_of_client=np.array([-1, 0]))

    def test_equality_is_identity_and_both_classes_hash(
        self, zone_map, direct_assignment, forwarded_assignment
    ):
        # The ndarray fields would make a generated field-wise __eq__ raise
        # "truth value of an array is ambiguous"; comparison is by identity.
        assert (direct_assignment == forwarded_assignment) is False
        assert (direct_assignment == direct_assignment) is True
        zones_a, zones_b = ZoneAssignment(zone_map), ZoneAssignment(zone_map)
        assert (zones_a == zones_b) is False
        assert (zones_a == zones_a) is True
        assert len({direct_assignment, forwarded_assignment, zones_a, zones_b}) == 4


class TestLoadHelpers:
    def test_zone_server_loads_matches_manual(self, tiny_instance, zone_map):
        loads = zone_server_loads(tiny_instance, zone_map)
        expected = np.zeros(3)
        for zone, server in enumerate(zone_map):
            expected[server] += tiny_instance.zone_demands()[zone]
        np.testing.assert_allclose(loads, expected)

    def test_server_loads_counts_forwarding_once(self, tiny_instance, zone_map):
        contacts = zone_map[tiny_instance.client_zones].copy()
        contacts[0] = 1  # client 0 (zone 0 → server 0) forwards via server 1
        loads = server_loads(tiny_instance, zone_map, contacts)
        np.testing.assert_allclose(loads, [40.0, 40.0, 20.0])

    def test_forwarding_to_own_target_costs_nothing(self, tiny_instance, zone_map):
        contacts = zone_map[tiny_instance.client_zones]
        loads = server_loads(tiny_instance, zone_map, contacts)
        np.testing.assert_allclose(loads, zone_server_loads(tiny_instance, zone_map))
