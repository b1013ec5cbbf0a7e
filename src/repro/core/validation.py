"""Feasibility validation of CAP solutions.

The assignment algorithms are heuristics that may, in overloaded scenarios,
exceed server capacities on purpose (flagged via ``capacity_exceeded``).  The
experiment harness and the property-based tests use
:func:`validate_assignment` to get an explicit, machine-readable list of
violations instead of silently trusting the flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.assignment import CAPACITY_TOLERANCE, Assignment
from repro.core.problem import CAPInstance

__all__ = ["Violation", "ValidationReport", "validate_assignment"]


@dataclass(frozen=True)
class Violation:
    """A single feasibility violation.

    ``kind`` is one of ``"shape"``, ``"range"`` or ``"capacity"``.
    """

    kind: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating an assignment against an instance."""

    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violations were found."""
        return not self.violations

    def raise_if_invalid(self) -> None:
        """Raise ``ValueError`` listing all violations, if any."""
        if not self.ok:
            details = "; ".join(str(v) for v in self.violations)
            raise ValueError(f"assignment is not feasible: {details}")


def validate_assignment(
    instance: CAPInstance,
    assignment: Assignment,
) -> ValidationReport:
    """Check structural and capacity feasibility of an assignment.

    Checks performed:

    * shapes match the instance (one server per zone, one contact per client),
    * all server indices are within range,
    * every zone is hosted by exactly one server (implicit in the array form),
    * per-server load (zone demand + forwarding demand) does not exceed its
      capacity by more than :data:`~repro.core.assignment.CAPACITY_TOLERANCE` of it.

    Returns a :class:`ValidationReport`; capacity violations are reported per
    server with the absolute overshoot in Mbps.
    """
    violations: List[Violation] = []

    if assignment.zone_to_server.shape != (instance.num_zones,):
        violations.append(
            Violation(
                "shape",
                f"zone_to_server has shape {assignment.zone_to_server.shape}, "
                f"expected ({instance.num_zones},)",
            )
        )
    if assignment.contact_of_client.shape != (instance.num_clients,):
        violations.append(
            Violation(
                "shape",
                f"contact_of_client has shape {assignment.contact_of_client.shape}, "
                f"expected ({instance.num_clients},)",
            )
        )
    if violations:
        return ValidationReport(violations)

    if assignment.zone_to_server.size and (
        assignment.zone_to_server.min() < 0
        or assignment.zone_to_server.max() >= instance.num_servers
    ):
        violations.append(Violation("range", "zone_to_server refers to unknown servers"))
    if assignment.contact_of_client.size and (
        assignment.contact_of_client.min() < 0
        or assignment.contact_of_client.max() >= instance.num_servers
    ):
        violations.append(Violation("range", "contact_of_client refers to unknown servers"))
    if violations:
        return ValidationReport(violations)

    loads = assignment.server_loads(instance)
    limits = instance.server_capacities * (1.0 + CAPACITY_TOLERANCE)
    overloaded = np.flatnonzero(loads > limits)
    for server in overloaded:
        over_mbps = (loads[server] - instance.server_capacities[server]) / 1e6
        violations.append(
            Violation(
                "capacity",
                f"server {int(server)} exceeds its capacity by {over_mbps:.3f} Mbps",
            )
        )
    return ValidationReport(violations)
