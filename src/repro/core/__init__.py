"""Core client-assignment algorithms — the paper's primary contribution.

Public surface:

* :class:`~repro.core.problem.CAPInstance` — the problem data (delay matrices,
  demands, capacities, delay bound).
* :class:`~repro.core.assignment.ZoneAssignment` /
  :class:`~repro.core.assignment.Assignment` — phase-1 and complete solutions.
* :func:`~repro.core.ranz.assign_zones_random` (RanZ),
  :func:`~repro.core.grez.assign_zones_greedy` (GreZ),
  :func:`~repro.core.virc.assign_contacts_virtual` (VirC),
  :func:`~repro.core.grec.assign_contacts_greedy` (GreC).
* :func:`~repro.core.two_phase.solve_cap` — run any of the four two-phase
  compositions (RanZ-VirC, RanZ-GreC, GreZ-VirC, GreZ-GreC).
* :func:`~repro.core.optimal.solve_cap_optimal` — the exact branch-and-bound
  baseline (the paper's ``lp_solve`` role).
* :func:`~repro.core.validation.validate_assignment` — feasibility audit.
* :mod:`repro.core.registry` — name → solver registry used by the experiment
  harness and CLI.
"""

from repro.core.arbitration import (
    ARBITER_NAMES,
    CapacityArbiter,
    ProportionalArbiter,
    RegretArbiter,
    ShardSignal,
    StaticArbiter,
    check_slices,
    make_arbiter,
)
from repro.core.assignment import Assignment, ZoneAssignment, server_loads, zone_server_loads
from repro.core.costs import (
    delays_to_targets,
    initial_cost_matrix,
    refined_cost_matrix,
)
from repro.core.grec import assign_contacts_greedy
from repro.core.grez import assign_zones_greedy
from repro.core.optimal import (
    OptimalityError,
    OptimalOptions,
    solve_cap_optimal,
    solve_iap_optimal,
    solve_rap_optimal,
)
from repro.core.problem import CAPInstance
from repro.core.ranz import assign_zones_random
from repro.core.regret import RegretResult, max_regret_assign, regret_order
from repro.core.registry import get_solver, register_solver, solve, solver_names
from repro.core.two_phase import (
    PAPER_ALGORITHMS,
    STANDARD_ALGORITHMS,
    TwoPhaseAlgorithm,
    solve_cap,
)
from repro.core.local_search import LocalSearchResult, refine_assignment, warm_start_refine
from repro.core.validation import ValidationReport, Violation, validate_assignment
from repro.core.variants import (
    assign_contacts_first_fit,
    assign_zones_best_fit,
    assign_zones_first_fit,
    register_variant_solvers,
)
from repro.core.virc import assign_contacts_virtual

# Make the first-fit / best-fit ablation variants available by name everywhere
# the registry is used (idempotent).
register_variant_solvers()

__all__ = [
    "CAPInstance",
    "Assignment",
    "ZoneAssignment",
    "server_loads",
    "zone_server_loads",
    "initial_cost_matrix",
    "refined_cost_matrix",
    "delays_to_targets",
    "assign_zones_random",
    "assign_zones_greedy",
    "assign_contacts_virtual",
    "assign_contacts_greedy",
    "RegretResult",
    "max_regret_assign",
    "regret_order",
    "TwoPhaseAlgorithm",
    "PAPER_ALGORITHMS",
    "STANDARD_ALGORITHMS",
    "solve_cap",
    "OptimalOptions",
    "OptimalityError",
    "solve_cap_optimal",
    "solve_iap_optimal",
    "solve_rap_optimal",
    "ValidationReport",
    "Violation",
    "validate_assignment",
    "assign_zones_first_fit",
    "assign_zones_best_fit",
    "assign_contacts_first_fit",
    "register_variant_solvers",
    "LocalSearchResult",
    "refine_assignment",
    "warm_start_refine",
    "get_solver",
    "register_solver",
    "solve",
    "solver_names",
    "ARBITER_NAMES",
    "CapacityArbiter",
    "StaticArbiter",
    "ProportionalArbiter",
    "RegretArbiter",
    "ShardSignal",
    "check_slices",
    "make_arbiter",
]
