"""Alternative greedy strategies for the two assignment phases (ablation E7).

The paper's GreZ / GreC use the *max-regret* ordering borrowed from classic
Generalized Assignment Problem heuristics.  To quantify how much that ordering
contributes (versus simply being delay-aware at all), this module provides two
simpler strategies for each phase:

* **first-fit** — process items in a fixed order (zones by decreasing demand,
  clients in index order) and give each its most desirable server with room.
  This is what a straightforward implementation without the regret machinery
  would do.
* **best-fit** — like first-fit, but among the servers within a small cost
  tolerance of the best one, prefer the server with the largest residual
  capacity (a bin-packing-style tie-break that protects capacity headroom).

Both reuse the same cost matrices as the paper's heuristics (Equations 3 and
8), so any performance difference is attributable purely to the ordering /
tie-breaking strategy.  The composed two-phase solvers are registered in
:mod:`repro.core.registry` as ``grez[-ff|-bf]-grec[-ff|-bf]``-style names by
:func:`register_variant_solvers`.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment, ZoneAssignment, zone_server_loads
from repro.core.costs import initial_cost_matrix, refined_cost_matrix
from repro.core.problem import CAPInstance
from repro.utils.timing import Timer

__all__ = [
    "assign_zones_first_fit",
    "assign_zones_best_fit",
    "assign_contacts_first_fit",
    "register_variant_solvers",
]


def _greedy_place(
    desirability: np.ndarray,
    order: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    initial_loads: np.ndarray | None = None,
    best_fit: bool = False,
    cost_tolerance: float = 1e-9,
) -> tuple[np.ndarray, bool]:
    """Place items (columns of ``desirability``) following ``order``.

    Returns the per-item server choice and whether any placement had to exceed
    a capacity (best-effort fallback on the least-loaded server).
    """
    num_servers, num_items = desirability.shape
    loads = np.zeros(num_servers) if initial_loads is None else initial_loads.astype(float).copy()
    choice = np.full(num_items, -1, dtype=np.int64)
    exceeded = False

    for item in order:
        item = int(item)
        column = desirability[:, item]
        ranked = np.argsort(-column, kind="stable")
        placed = False
        if best_fit:
            # Candidate set: servers whose desirability is within tolerance of the best.
            best_value = column[ranked[0]]
            candidates = [s for s in ranked if column[s] >= best_value - cost_tolerance]
            # Prefer the candidate with the most residual capacity.
            candidates.sort(key=lambda s: -(capacities[s] - loads[s]))
            ranked = np.array(candidates + [s for s in ranked if s not in candidates])
        for server in ranked:
            server = int(server)
            if loads[server] + demands[item] <= capacities[server] + 1e-9:
                choice[item] = server
                loads[server] += demands[item]
                placed = True
                break
        if not placed:
            server = int(np.argmax(capacities - loads))
            choice[item] = server
            loads[server] += demands[item]
            exceeded = True
    return choice, exceeded


def assign_zones_first_fit(instance: CAPInstance, best_fit: bool = False) -> ZoneAssignment:
    """Delay-aware zone assignment without the max-regret ordering.

    Zones are processed in decreasing order of bandwidth demand (largest first,
    as a packing heuristic would) and each receives the server with the fewest
    QoS misses (Equation 3) that still has room.  With ``best_fit`` the
    capacity-aware tie-break described in the module docstring is applied.
    """
    with Timer() as timer:
        desirability = -initial_cost_matrix(instance)
        demands = instance.zone_demands()
        order = np.argsort(-demands, kind="stable")
        zone_to_server, exceeded = _greedy_place(
            desirability,
            order,
            demands,
            instance.server_capacities,
            best_fit=best_fit,
        )
    return ZoneAssignment(
        zone_to_server=zone_to_server,
        algorithm="grez-bf" if best_fit else "grez-ff",
        capacity_exceeded=exceeded,
        runtime_seconds=timer.elapsed,
    )


def assign_zones_best_fit(instance: CAPInstance) -> ZoneAssignment:
    """Best-fit flavour of :func:`assign_zones_first_fit`."""
    return assign_zones_first_fit(instance, best_fit=True)


def assign_contacts_first_fit(
    instance: CAPInstance, zone_assignment: ZoneAssignment
) -> Assignment:
    """Delay-aware contact selection without the max-regret ordering.

    Clients that miss the bound directly are processed in index order; each is
    given the contact server with the smallest refined cost (Equation 8) whose
    residual capacity covers the 2×RT forwarding demand, falling back to the
    target server (zero extra bandwidth) when nothing fits.
    """
    if zone_assignment.num_zones != instance.num_zones:
        raise ValueError(
            "zone_assignment covers a different number of zones than the instance"
        )
    with Timer() as timer:
        targets = zone_assignment.targets_of_clients(instance)
        direct = instance.delays_to(targets)
        contacts = targets.copy()
        needy = np.flatnonzero(direct > instance.delay_bound)
        if needy.size:
            cost = refined_cost_matrix(instance, zone_assignment.zone_to_server)
            loads = zone_server_loads(instance, zone_assignment.zone_to_server)
            capacities = instance.server_capacities
            for client in needy:
                client = int(client)
                ranked = np.argsort(cost[:, client], kind="stable")
                for server in ranked:
                    server = int(server)
                    if server == targets[client]:
                        # Staying on the target costs nothing and is always allowed.
                        contacts[client] = server
                        break
                    extra = 2.0 * instance.client_demands[client]
                    if loads[server] + extra <= capacities[server] + 1e-9:
                        contacts[client] = server
                        loads[server] += extra
                        break
    return Assignment(
        zone_to_server=zone_assignment.zone_to_server,
        contact_of_client=contacts,
        algorithm=f"{zone_assignment.algorithm}-grecff",
        capacity_exceeded=zone_assignment.capacity_exceeded,
        runtime_seconds=zone_assignment.runtime_seconds + timer.elapsed,
    )


def register_variant_solvers() -> None:
    """Register the first-fit / best-fit two-phase compositions by name.

    Registered names (idempotent):

    * ``grez-ff-grec`` — first-fit zones, max-regret contacts.
    * ``grez-bf-grec`` — best-fit zones, max-regret contacts.
    * ``grez-grec-ff`` — max-regret zones, first-fit contacts.
    * ``grez-ff-virc`` — first-fit zones, contact = target.
    """
    # Imported here to avoid a cycle with repro.core.registry at module import.
    from repro.core.grec import assign_contacts_greedy
    from repro.core.grez import assign_zones_greedy
    from repro.core.registry import register_solver, solver_names
    from repro.core.virc import assign_contacts_virtual

    def _ff_grec(instance: CAPInstance, seed=None) -> Assignment:  # noqa: ARG001
        zones = assign_zones_first_fit(instance)
        return assign_contacts_greedy(instance, zones).with_algorithm("grez-ff-grec")

    def _bf_grec(instance: CAPInstance, seed=None) -> Assignment:  # noqa: ARG001
        zones = assign_zones_best_fit(instance)
        return assign_contacts_greedy(instance, zones).with_algorithm("grez-bf-grec")

    def _grez_ffc(instance: CAPInstance, seed=None) -> Assignment:  # noqa: ARG001
        zones = assign_zones_greedy(instance)
        return assign_contacts_first_fit(instance, zones).with_algorithm("grez-grec-ff")

    def _ff_virc(instance: CAPInstance, seed=None) -> Assignment:  # noqa: ARG001
        zones = assign_zones_first_fit(instance)
        return assign_contacts_virtual(instance, zones).with_algorithm("grez-ff-virc")

    registered = set(solver_names())
    for name, solver in (
        ("grez-ff-grec", _ff_grec),
        ("grez-bf-grec", _bf_grec),
        ("grez-grec-ff", _grez_ffc),
        ("grez-ff-virc", _ff_virc),
    ):
        if name not in registered:
            register_solver(name, solver)
