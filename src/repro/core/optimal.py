"""Optimal (branch-and-bound) baseline for the IAP and RAP.

The paper obtains optimal solutions of both integer programs with the
branch-and-bound algorithm of the MILP solver ``lp_solve`` "for comparison
purposes ... only applicable when the system size is small, otherwise the
running time will become very long".  This module plays the same role using
:func:`scipy.optimize.milp` (the HiGHS branch-and-bound solver shipped with
SciPy); the formulations are exactly Definitions 2.2 and 2.3.  SciPy's MILP
and sparse modules are imported on the first exact solve, not with the
package, so processes that never call this baseline do not load them.

One deliberate refinement: the paper's RAP formulation charges every client a
constant forwarding demand ``RC(c) = 2 RT(c)`` regardless of which contact
server is chosen, even though choosing the client's own target server costs
nothing.  The MILP here uses the physically correct per-pair coefficient
(``0`` when the contact equals the target, ``2 RT(c)`` otherwise) so that the
optimal baseline is compared on the same resource-accounting rules as the
heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.assignment import Assignment, ZoneAssignment, zone_server_loads
from repro.core.costs import initial_cost_matrix, refined_cost_matrix
from repro.core.problem import CAPInstance
from repro.utils.timing import Timer

__all__ = [
    "OptimalityError",
    "OptimalOptions",
    "solve_iap_optimal",
    "solve_rap_optimal",
    "solve_cap_optimal",
]


class OptimalityError(RuntimeError):
    """Raised when the MILP solver cannot produce a feasible integral solution."""


@dataclass(frozen=True)
class OptimalOptions:
    """Options forwarded to the HiGHS branch-and-bound solver.

    ``time_limit`` is in seconds per phase.  The relative optimality gap is
    0: the solver proves optimality.
    """

    time_limit: float = 120.0

    def as_milp_options(self) -> dict:
        """The ``options`` dict accepted by :func:`scipy.optimize.milp`."""
        return {"time_limit": float(self.time_limit), "mip_rel_gap": 0.0}


def _solve_assignment_milp(
    cost: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    options: OptimalOptions,
    per_pair_demands: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """Solve ``min sum_ij cost[i,j] x[i,j]`` s.t. each item assigned once and capacities.

    ``cost`` is (num_servers, num_items); ``demands`` is per item (ignored when
    ``per_pair_demands`` of the same shape as ``cost`` is given).  Returns the
    per-item chosen server and the objective value.
    """
    import scipy.sparse as sp
    from scipy.optimize import Bounds, LinearConstraint, milp

    num_servers, num_items = cost.shape
    num_vars = num_servers * num_items
    c = cost.reshape(-1)

    # Assignment constraints: for every item j, sum_i x[i, j] == 1.
    rows = np.repeat(np.arange(num_items), num_servers)
    cols = (np.tile(np.arange(num_servers), num_items) * num_items
            + np.repeat(np.arange(num_items), num_servers))
    data = np.ones(num_items * num_servers)
    a_eq = sp.csr_matrix((data, (rows, cols)), shape=(num_items, num_vars))
    eq_constraint = LinearConstraint(a_eq, lb=np.ones(num_items), ub=np.ones(num_items))

    # Capacity constraints: for every server i, sum_j demand[i, j] x[i, j] <= capacity[i].
    if per_pair_demands is None:
        pair_demands = np.broadcast_to(demands, (num_servers, num_items))
    else:
        pair_demands = per_pair_demands
    rows = np.repeat(np.arange(num_servers), num_items)
    cols = np.arange(num_vars)
    a_ub = sp.csr_matrix((pair_demands.reshape(-1), (rows, cols)), shape=(num_servers, num_vars))
    ub_constraint = LinearConstraint(a_ub, lb=-np.inf, ub=capacities)

    result = milp(
        c=c,
        constraints=[eq_constraint, ub_constraint],
        integrality=np.ones(num_vars),
        bounds=Bounds(0, 1),
        options=options.as_milp_options(),
    )
    if result.x is None:
        raise OptimalityError(
            f"MILP solver failed (status={result.status}): {result.message}"
        )
    x = np.asarray(result.x).reshape(num_servers, num_items)
    chosen = np.argmax(x, axis=0).astype(np.int64)
    # Guard against fractional garbage (should not happen with integrality=1).
    if not np.allclose(x.sum(axis=0), 1.0, atol=1e-4):
        raise OptimalityError("MILP solution does not assign every item exactly once")
    return chosen, float(result.fun)


def solve_iap_optimal(
    instance: CAPInstance, options: OptimalOptions | None = None
) -> ZoneAssignment:
    """Solve the initial assignment problem (Definition 2.2) to optimality.

    Raises :class:`OptimalityError` when the instance is infeasible (total
    zone demand cannot be packed into the capacities) or the solver fails
    within its time limit.
    """
    options = options or OptimalOptions()
    with Timer() as timer:
        cost = initial_cost_matrix(instance)  # (m, n)
        zone_to_server, objective = _solve_assignment_milp(
            cost=cost,
            demands=instance.zone_demands(),
            capacities=instance.server_capacities,
            options=options,
        )
    del objective  # the objective equals initial_cost_matrix(...)[i, j] summed over the choice
    return ZoneAssignment(
        zone_to_server=zone_to_server,
        algorithm="optimal-iap",
        capacity_exceeded=False,
        runtime_seconds=timer.elapsed,
    )


def solve_rap_optimal(
    instance: CAPInstance,
    zone_assignment: ZoneAssignment,
    options: OptimalOptions | None = None,
) -> Assignment:
    """Solve the refined assignment problem (Definition 2.3) to optimality.

    Clients whose direct delay to their target server already meets the bound
    are fixed to contact = target (this is optimal: zero cost, zero resource);
    the MILP only covers the remaining clients, which keeps the model at the
    size ``lp_solve`` handled in the paper.
    """
    options = options or OptimalOptions()
    with Timer() as timer:
        targets = zone_assignment.targets_of_clients(instance)
        direct = instance.delays_to(targets)
        needs_help = direct > instance.delay_bound
        contacts = targets.copy()

        if needs_help.any():
            helped = np.flatnonzero(needs_help)
            cost = refined_cost_matrix(instance, zone_assignment.zone_to_server)[:, helped]
            # Per-pair forwarding demand: zero on the client's own target server.
            rc = 2.0 * instance.client_demands[helped]
            pair_demands = np.broadcast_to(rc, cost.shape).copy()
            pair_demands[targets[helped], np.arange(helped.size)] = 0.0
            residual = instance.server_capacities - zone_server_loads(
                instance, zone_assignment.zone_to_server
            )
            residual = np.maximum(residual, 0.0)
            chosen, _objective = _solve_assignment_milp(
                cost=cost,
                demands=rc,
                capacities=residual,
                options=options,
                per_pair_demands=pair_demands,
            )
            contacts[helped] = chosen

    return Assignment(
        zone_to_server=zone_assignment.zone_to_server,
        contact_of_client=contacts,
        algorithm="optimal",
        capacity_exceeded=zone_assignment.capacity_exceeded,
        runtime_seconds=zone_assignment.runtime_seconds + timer.elapsed,
    )


def solve_cap_optimal(
    instance: CAPInstance, options: OptimalOptions | None = None
) -> Assignment:
    """Solve both phases to optimality (the paper's ``lp_solve`` baseline).

    Like the paper, "optimal" means optimal *per phase* under the two-phase
    decomposition — the refined phase optimises on top of the optimal initial
    assignment, not jointly with it.
    """
    options = options or OptimalOptions()
    zones = solve_iap_optimal(instance, options=options)
    return solve_rap_optimal(instance, zones, options=options)
