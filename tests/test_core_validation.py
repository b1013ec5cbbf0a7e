"""Tests for repro.core.validation — feasibility auditing of assignments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import CAPACITY_TOLERANCE, Assignment
from repro.core.validation import ValidationReport, Violation, validate_assignment


@pytest.fixture()
def good_assignment(tiny_instance):
    zone_map = np.array([0, 1, 2, 1])
    return Assignment(
        zone_to_server=zone_map,
        contact_of_client=zone_map[tiny_instance.client_zones],
        algorithm="good",
    )


class TestValidateAssignment:
    def test_valid_assignment_passes(self, tiny_instance, good_assignment):
        report = validate_assignment(tiny_instance, good_assignment)
        assert report.ok
        assert report.violations == []
        report.raise_if_invalid()  # must not raise

    def test_wrong_zone_shape(self, tiny_instance, good_assignment):
        bad = Assignment(
            zone_to_server=np.array([0, 1]),
            contact_of_client=good_assignment.contact_of_client,
        )
        report = validate_assignment(tiny_instance, bad)
        assert not report.ok
        assert any(v.kind == "shape" for v in report.violations)

    def test_wrong_contact_shape(self, tiny_instance, good_assignment):
        bad = Assignment(
            zone_to_server=good_assignment.zone_to_server,
            contact_of_client=np.array([0, 1, 2]),
        )
        report = validate_assignment(tiny_instance, bad)
        assert any(v.kind == "shape" for v in report.violations)

    def test_server_index_out_of_range(self, tiny_instance, good_assignment):
        bad = Assignment(
            zone_to_server=np.array([0, 1, 2, 9]),
            contact_of_client=good_assignment.contact_of_client,
        )
        report = validate_assignment(tiny_instance, bad)
        assert any(v.kind == "range" for v in report.violations)

    def test_capacity_violation_reported_per_server(self, good_assignment):
        from tests.conftest import make_tiny_instance

        overloaded = make_tiny_instance(capacities=(25.0, 25.0, 25.0))
        # zone_to_server [0,1,2,1] puts 40 on server 1, above its 25 capacity.
        report = validate_assignment(overloaded, good_assignment)
        assert not report.ok
        capacity_violations = [v for v in report.violations if v.kind == "capacity"]
        assert len(capacity_violations) == 1
        assert "server 1" in capacity_violations[0].message

    def test_raise_if_invalid_raises(self, tiny_instance):
        bad = Assignment(zone_to_server=np.array([0, 1]), contact_of_client=np.zeros(8, dtype=int))
        with pytest.raises(ValueError, match="not feasible"):
            validate_assignment(tiny_instance, bad).raise_if_invalid()

    def test_tolerance_allows_marginal_overshoot(self, good_assignment):
        from tests.conftest import make_tiny_instance

        # Loads are [20, 40, 20]; each capacity sits half a tolerance below.
        loads = np.array([20.0, 40.0, 20.0])
        marginal = make_tiny_instance(capacities=loads / (1.0 + CAPACITY_TOLERANCE / 2))
        assert validate_assignment(marginal, good_assignment).ok

    def test_overshoot_beyond_tolerance_reported(self, good_assignment):
        from tests.conftest import make_tiny_instance

        loads = np.array([20.0, 40.0, 20.0])
        capacities = loads.copy()
        capacities[1] = loads[1] / (1.0 + 2 * CAPACITY_TOLERANCE)
        report = validate_assignment(make_tiny_instance(capacities=capacities), good_assignment)
        assert [v.kind for v in report.violations] == ["capacity"]
        assert "server 1" in report.violations[0].message


class TestReportObjects:
    def test_violation_str(self):
        violation = Violation("capacity", "server 3 is overloaded")
        assert "capacity" in str(violation)
        assert "server 3" in str(violation)

    def test_empty_report_ok(self):
        assert ValidationReport().ok
