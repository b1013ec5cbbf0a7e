"""GreC — greedy (max-regret) assignment of contact servers.

From Section 3.2 / Figure 3 of the paper.  GreC exploits the well-provisioned
inter-server mesh: a client whose direct delay to its target server already
meets the bound keeps the target as its contact server; every other client is
placed on a contact server chosen by a max-regret greedy pass over the refined
cost ``C^R_ij = max(0, d(c_j, s_i) + d(s_i, target_j) - D)``, subject to the
residual capacity left after the initial phase (forwarding a client through a
distinct contact server consumes ``RC = 2 * RT`` there).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import Assignment, ZoneAssignment, zone_server_loads
from repro.core.costs import refined_cost_candidates, refined_cost_rows
from repro.core.measures import attach_measures
from repro.core.problem import CAPInstance
from repro.core.regret import (
    RegretResult,
    max_regret_assign,
    max_regret_assign_candidates,
)
from repro.utils.timing import Timer

__all__ = ["assign_contacts_greedy"]


def _place_on_candidates(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    helped: np.ndarray,
    loads: np.ndarray,
) -> Optional[RegretResult]:
    """Candidate-list placement, or ``None``.

    Every server outside a needy client's zone candidates carries the
    sentinel delay, so its refined cost is at least ``fill_value -
    delay_bound`` — the K candidate columns are the whole finite-cost
    problem.  When every candidate cost sits strictly below that
    sentinel floor (checked, not assumed), the placement runs through
    :func:`~repro.core.regret.max_regret_assign_candidates` — bit-identical
    to the full-matrix pass, minus the O(|L_E| x m) cost rows and the
    per-item fleet partition.  The pass keeps one per-client table, the
    ``(|L_E|, K)`` float64 candidate costs: the server ids stay in the
    matrix's shared ``(zones, K)`` table, which each needy client reads
    through its zone.  The full rows are still materialised on demand for
    the rare clients whose whole candidate set runs out of capacity.
    ``None`` when the lists are too narrow to define a regret (``K < 2``)
    or list every server: then the cost rows are the candidate costs.
    """
    servers = instance.client_server_delays.sorted_candidates()
    if not 2 <= servers.shape[1] < instance.num_servers:
        return None
    costs = refined_cost_candidates(instance, zone_to_server, helped)
    fill = instance.client_server_delays.fill_value
    if not costs.max() < fill - instance.delay_bound:
        return None

    def full_rows(cols: np.ndarray) -> np.ndarray:
        rows = refined_cost_rows(instance, zone_to_server, helped[cols])
        return np.negative(rows, out=rows)

    return max_regret_assign_candidates(
        candidate_servers=servers,
        item_rows=instance.client_zones[helped],
        candidate_desirability=np.negative(costs, out=costs),
        num_servers=instance.num_servers,
        demands=2.0 * instance.client_demands[helped],
        capacities=instance.server_capacities,
        row_provider=full_rows,
        initial_loads=loads,
        fallback="skip",
    )


def assign_contacts_greedy(
    instance: CAPInstance,
    zone_assignment: ZoneAssignment,
    recompute_regret: bool = False,
) -> Assignment:
    """Choose contact servers with the max-regret greedy heuristic (GreC).

    Parameters
    ----------
    instance:
        The CAP instance.
    zone_assignment:
        The zone → server map from the initial phase.
    recompute_regret:
        Dynamic-regret variant (ablation); the paper computes regrets once.

    Returns
    -------
    Assignment
        Clients within the bound keep their target server as contact; the
        remaining clients are forwarded through the contact server that brings
        them closest to (or within) the bound without exceeding capacities.
        When no server has room for a client's forwarding demand, the client
        falls back to its target server (which consumes no extra bandwidth).
    """
    if zone_assignment.num_zones != instance.num_zones:
        raise ValueError("zone_assignment covers a different number of zones than the instance")
    with Timer() as timer:
        targets = zone_assignment.targets_of_clients(instance)  # (k,)
        delays = instance.delays_to(targets)
        helped = np.flatnonzero(delays > instance.delay_bound)  # the list L_E of the paper

        # Contacts start as the targets and are written over the gathered
        # targets array itself: the forwarded clients' targets are read
        # before their contacts are stored.
        contacts = targets
        capacity_exceeded = zone_assignment.capacity_exceeded

        # Measurement-stash byproducts: the per-client delays under the final
        # contact map, built in place from the direct delays gathered above
        # (the mesh diagonal is zero, so "contact == target" adds 0.0 — the
        # exact expression Assignment.client_delays evaluates; the diagonal
        # read gives bitwise the entries of mesh[targets, targets]), and the
        # per-server loads.  Only the clients the greedy pass actually
        # forwards are re-evaluated below.
        delays += np.diagonal(instance.server_server_delays).take(targets)
        loads = zone_server_loads(instance, zone_assignment.zone_to_server)

        if helped.size:
            result = None
            if not recompute_regret:
                # The needy clients' candidate lists are the whole
                # finite-cost problem — O(|L_E| x K) instead of O(|L_E| x m).
                result = _place_on_candidates(
                    instance, zone_assignment.zone_to_server, helped, loads
                )
            if result is None:
                # (|L_E|, m) row-major: only the needy clients' refined-cost
                # rows are computed — the dense (m, k) matrix would mostly be
                # sliced away — and the transposed view feeds the placement
                # engine's row-major per-item gathers without a relayout copy.
                cost_rows = refined_cost_rows(instance, zone_assignment.zone_to_server, helped)
                np.negative(cost_rows, out=cost_rows)
                desirability = cost_rows.T
                result = max_regret_assign(
                    desirability=desirability,
                    demands=2.0 * instance.client_demands[helped],
                    capacities=instance.server_capacities,
                    initial_loads=loads,
                    fallback="skip",
                    recompute=recompute_regret,
                )
            chosen = result.item_to_server
            # Clients that could not be placed anywhere keep their target server
            # (zero extra bandwidth); the paper's pseudocode simply exhausts the
            # candidate list, which leaves the client on its target server too.
            placed = chosen >= 0
            moved = helped[placed]
            moved_targets = targets[moved]
            contacts[moved] = chosen[placed]
            # A client "placed" on its own target server costs RC = 0, but the
            # greedy pass above charged 2*RT for it; correct the accounting by
            # treating it as unforwarded (the arrays only store indices, so no
            # load fix-up is needed here — the loads below re-scatter only the
            # genuinely forwarded clients with the correct RC rule).
            if moved.size:
                delays[moved] = instance.delay_pairs(
                    moved, chosen[placed]
                ) + instance.server_server_delays[chosen[placed], moved_targets]
                forwarded = moved[chosen[placed] != moved_targets]
                if forwarded.size:
                    np.add.at(loads, contacts[forwarded], 2.0 * instance.client_demands[forwarded])

    suffix = "grec" if not recompute_regret else "grec-dynamic"
    assignment = Assignment(
        zone_to_server=zone_assignment.zone_to_server,
        contact_of_client=contacts,
        algorithm=f"{zone_assignment.algorithm}-{suffix}",
        capacity_exceeded=capacity_exceeded,
        runtime_seconds=zone_assignment.runtime_seconds + timer.elapsed,
    )
    attach_measures(assignment, instance, delays, loads)
    return assignment
