"""Two-phase CAP algorithms: compositions of an IAP and an RAP heuristic.

Section 3.3 of the paper: "A two-phase algorithm for the CAP is obtained by
combining the algorithms for the IAP and the RAP.  Thus, in total we have four
different two-phase algorithms, namely RanZ-VirC, RanZ-GreC, GreZ-VirC and
GreZ-GreC."

:class:`TwoPhaseAlgorithm` glues one initial-phase solver to one refined-phase
solver; :data:`STANDARD_ALGORITHMS` holds the paper's four compositions plus
the dynamic-regret ablation variants, and :func:`solve_cap` is the convenience
entry point used by the experiment harness, the examples and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.assignment import Assignment, ZoneAssignment
from repro.core.grec import assign_contacts_greedy
from repro.core.grez import assign_zones_greedy
from repro.core.problem import CAPInstance
from repro.core.ranz import assign_zones_random
from repro.core.virc import assign_contacts_virtual
from repro.utils.rng import SeedLike

__all__ = [
    "TwoPhaseAlgorithm",
    "STANDARD_ALGORITHMS",
    "PAPER_ALGORITHMS",
    "solve_cap",
    "available_algorithms",
]

IAPSolver = Callable[[CAPInstance, SeedLike], ZoneAssignment]
RAPSolver = Callable[[CAPInstance, ZoneAssignment], Assignment]


@dataclass(frozen=True)
class TwoPhaseAlgorithm:
    """A CAP algorithm composed of an initial-phase and a refined-phase solver.

    Attributes
    ----------
    name:
        Canonical lower-case name, e.g. ``"grez-grec"``.
    iap:
        Callable ``(instance, seed) -> ZoneAssignment``.
    rap:
        Callable ``(instance, zone_assignment) -> Assignment``.
    description:
        One-line human-readable description.
    """

    name: str
    iap: IAPSolver
    rap: RAPSolver
    description: str = ""

    def solve(self, instance: CAPInstance, seed: SeedLike = None) -> Assignment:
        """Run both phases and return the complete assignment."""
        zone_assignment = self.iap(instance, seed)
        assignment = self.rap(instance, zone_assignment)
        return assignment.with_algorithm(self.name)


# ---------------------------------------------------------------------- #
# Phase solver adapters (the uniform two-argument signatures)
# ---------------------------------------------------------------------- #
def _grez(instance: CAPInstance, seed: SeedLike) -> ZoneAssignment:  # noqa: ARG001
    return assign_zones_greedy(instance)


def _grez_dynamic(instance: CAPInstance, seed: SeedLike) -> ZoneAssignment:  # noqa: ARG001
    return assign_zones_greedy(instance, recompute_regret=True)


def _grec_dynamic(instance: CAPInstance, zones: ZoneAssignment) -> Assignment:
    return assign_contacts_greedy(instance, zones, recompute_regret=True)


#: The four two-phase algorithms evaluated in the paper.
PAPER_ALGORITHMS: Dict[str, TwoPhaseAlgorithm] = {
    "ranz-virc": TwoPhaseAlgorithm(
        "ranz-virc",
        assign_zones_random,
        assign_contacts_virtual,
        "random zones, contact = target",
    ),
    "ranz-grec": TwoPhaseAlgorithm(
        "ranz-grec",
        assign_zones_random,
        assign_contacts_greedy,
        "random zones, greedy contact selection",
    ),
    "grez-virc": TwoPhaseAlgorithm(
        "grez-virc", _grez, assign_contacts_virtual, "greedy zones, contact = target"
    ),
    "grez-grec": TwoPhaseAlgorithm(
        "grez-grec", _grez, assign_contacts_greedy, "greedy zones, greedy contact selection"
    ),
}

#: Paper algorithms plus the dynamic-regret ablation variants.
STANDARD_ALGORITHMS: Dict[str, TwoPhaseAlgorithm] = {
    **PAPER_ALGORITHMS,
    "grez-grec-dynamic": TwoPhaseAlgorithm(
        "grez-grec-dynamic",
        _grez_dynamic,
        _grec_dynamic,
        "greedy zones and contacts with regret recomputation after each placement",
    ),
}


def available_algorithms() -> list[str]:
    """Names of the registered two-phase heuristics."""
    return sorted(STANDARD_ALGORITHMS)


def solve_cap(
    instance: CAPInstance,
    algorithm: str = "grez-grec",
    seed: SeedLike = None,
    registry: Optional[Dict[str, TwoPhaseAlgorithm]] = None,
) -> Assignment:
    """Solve a CAP instance with one of the registered two-phase heuristics.

    Parameters
    ----------
    instance:
        The problem instance.
    algorithm:
        Algorithm name (case-insensitive); one of :func:`available_algorithms`,
        e.g. ``"grez-grec"`` (the paper's best heuristic, the default).
    seed:
        RNG seed (only used by the RanZ-based algorithms).
    registry:
        Optional alternative algorithm registry (used by tests).

    Returns
    -------
    Assignment
    """
    registry = STANDARD_ALGORITHMS if registry is None else registry
    key = algorithm.lower()
    if key not in registry:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; available: {', '.join(sorted(registry))}"
        )
    return registry[key].solve(instance, seed=seed)
