"""Test-only oracle: the nested-scan local search over zone and contact moves.

A frozen copy of the original hill climber that specified the
move-acceptance semantics of ``repro.core.local_search.refine_assignment``:
every round scans every zone move and, per over-bound client, its
delay-wise best feasible contact move, and applies the best strictly
improving one.  It keeps its own capacity slack and objective, so it shares
no move-selection code with the engine it checks; ``delays_to_targets`` and
``server_loads`` are the library's plain gathers and reductions.
``tests/test_core_local_search.py`` checks that the engine applies the same
moves from the same start.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment, server_loads
from repro.core.costs import delays_to_targets
from repro.core.problem import CAPInstance

#: Capacity slack of every feasibility check.
_CAP_EPS = 1e-9


def _objective(instance: CAPInstance, delays: np.ndarray) -> tuple[int, float]:
    """(number of clients with QoS, negative total excess delay) — larger is better."""
    within = delays <= instance.delay_bound
    excess = np.maximum(delays - instance.delay_bound, 0.0).sum()
    return int(within.sum()), -float(excess)


def _refine_loop(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    consider_zone_moves: bool,
    consider_contact_moves: bool,
) -> int:
    """Nested-scan hill climber; mutates the arrays in place."""
    capacities = instance.server_capacities
    iterations = 0
    for _ in range(max_iterations):
        delays = delays_to_targets(instance, zone_to_server, contacts)
        current = _objective(instance, delays)
        loads = server_loads(instance, zone_to_server, contacts)
        best_gain: tuple[int, float] | None = None
        best_apply = None

        # ---------------- zone moves ---------------- #
        if consider_zone_moves:
            zone_demands = instance.zone_demands()
            for zone in range(instance.num_zones):
                members = instance.clients_of_zone(zone)
                if members.size == 0:
                    continue
                old_server = int(zone_to_server[zone])
                for server in range(instance.num_servers):
                    if server == old_server:
                        continue
                    if loads[server] + zone_demands[zone] > capacities[server] + _CAP_EPS:
                        continue
                    trial_zone = zone_to_server.copy()
                    trial_zone[zone] = server
                    trial_contacts = contacts.copy()
                    # Clients of the moved zone reconnect directly to the new
                    # host (the GreC base case); forwarded clients elsewhere
                    # are unaffected because their targets did not change.
                    trial_contacts[members] = server
                    trial_loads = server_loads(instance, trial_zone, trial_contacts)
                    if (trial_loads > capacities + _CAP_EPS).any():
                        continue
                    trial_delays = delays_to_targets(instance, trial_zone, trial_contacts)
                    candidate = _objective(instance, trial_delays)
                    if candidate > current and (best_gain is None or candidate > best_gain):
                        best_gain = candidate
                        best_apply = ("zone", zone, server, trial_contacts)

        # ---------------- contact moves ---------------- #
        if consider_contact_moves:
            targets = zone_to_server[instance.client_zones]
            delays_now = delays_to_targets(instance, zone_to_server, contacts)
            # Only clients currently missing the bound can gain from a move.
            for client in np.flatnonzero(delays_now > instance.delay_bound):
                client = int(client)
                target = int(targets[client])
                options = (
                    instance.delay_rows(client)
                    + instance.server_server_delays[:, target]
                )
                for server in np.argsort(options, kind="stable"):
                    server = int(server)
                    if server == int(contacts[client]):
                        continue
                    extra = 0.0 if server == target else 2.0 * instance.client_demands[client]
                    new_load = loads[server] + extra
                    if server != int(contacts[client]) and new_load > capacities[server] + _CAP_EPS:
                        continue
                    trial_contacts = contacts.copy()
                    trial_contacts[client] = server
                    trial_delays = delays_now.copy()
                    trial_delays[client] = options[server]
                    candidate = _objective(instance, trial_delays)
                    if candidate > current and (best_gain is None or candidate > best_gain):
                        best_gain = candidate
                        best_apply = ("contact", client, server, trial_contacts)
                    break  # only the best option per client needs checking

        if best_apply is None:
            break
        kind, index, server, new_contacts = best_apply
        if kind == "zone":
            zone_to_server[index] = server
        contacts[:] = new_contacts
        iterations += 1
    return iterations


def refine_loop(
    instance: CAPInstance,
    assignment: Assignment,
    max_iterations: int = 200,
    consider_zone_moves: bool = True,
    consider_contact_moves: bool = True,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Oracle for ``refine_assignment``: ``(zone_to_server, contacts, iterations)``."""
    zone_to_server = assignment.zone_to_server.copy()
    contacts = assignment.contact_of_client.copy()
    iterations = _refine_loop(
        instance,
        zone_to_server,
        contacts,
        max_iterations,
        consider_zone_moves,
        consider_contact_moves,
    )
    return zone_to_server, contacts, iterations
