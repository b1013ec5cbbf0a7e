"""Nearest-server baseline (mirrored-architecture-style server selection).

Lee, Ko & Calo's adaptive server selection (cited as [16] by the paper) lets
each client pick the lowest-delay server in a *mirrored* architecture where
every server replicates the whole world.  The zone-based GDSA cannot replicate
zones (consistency would suffer), so the closest meaningful adaptation — and a
natural single-phase baseline — is:

* every client contacts its lowest-delay server that still has capacity, and
* each zone's target server is the server that is "nearest" to the zone's
  clients in aggregate (the one that minimises the number of the zone's
  clients missing the delay bound, ties broken by mean delay), subject to
  capacity.

It is delay-aware in both decisions but makes them independently per client /
zone, without the paper's global regret ordering or the two-phase interaction,
so it quantifies how much the structured two-phase optimisation adds.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment, ZoneAssignment, zone_server_loads
from repro.core.costs import initial_cost_matrix
from repro.core.problem import CAPInstance
from repro.utils.rng import SeedLike
from repro.utils.timing import Timer

__all__ = ["solve_nearest_server"]


def _assign_zones_nearest(instance: CAPInstance) -> ZoneAssignment:
    """Zone → server map minimising per-zone QoS misses, greedily by zone size."""
    cost = initial_cost_matrix(instance)  # (m, n) clients-without-QoS counts
    # Mean client delay per (server, zone) used only to break ties.
    populations = np.maximum(instance.zone_populations(), 1)
    sums = instance.client_server_delays.zone_delay_sums(instance.client_zones, instance.num_zones)
    mean_delay = (sums / populations[:, None]).T

    zone_demands = instance.zone_demands()
    capacities = instance.server_capacities
    loads = np.zeros(instance.num_servers)
    zone_to_server = np.full(instance.num_zones, -1, dtype=np.int64)
    capacity_exceeded = False

    for zone in np.argsort(-zone_demands, kind="stable"):
        demand = zone_demands[zone]
        # Rank servers by (miss count, mean delay).
        order = np.lexsort((mean_delay[:, zone], cost[:, zone]))
        placed = False
        for server in order:
            if loads[server] + demand <= capacities[server] + 1e-9:
                zone_to_server[zone] = int(server)
                loads[server] += demand
                placed = True
                break
        if not placed:
            server = int(np.argmax(capacities - loads))
            zone_to_server[zone] = server
            loads[server] += demand
            capacity_exceeded = True

    return ZoneAssignment(
        zone_to_server=zone_to_server,
        algorithm="nearest-server",
        capacity_exceeded=capacity_exceeded,
    )


def solve_nearest_server(
    instance: CAPInstance, seed: SeedLike = None  # noqa: ARG001
) -> Assignment:
    """Full CAP baseline: nearest target server per zone, nearest contact per client."""
    with Timer() as timer:
        zones = _assign_zones_nearest(instance)
        targets = zones.targets_of_clients(instance)
        clients = np.arange(instance.num_clients)

        # Each client greedily picks the contact server with the lowest total
        # delay to its target, first-come-first-served in client order, subject
        # to residual capacity for the forwarding overhead.
        loads = zone_server_loads(instance, zones.zone_to_server)
        capacities = instance.server_capacities
        contacts = targets.copy()
        # total_delay[c, s] = d(c, s) + d(s, target_c).  The per-client greedy
        # scan below is inherently dense, so the delays materialise here
        # (this baseline only runs on paper-scale worlds).
        total_delay = (
            instance.client_server_delays.toarray() + instance.server_server_delays[:, targets].T
        )
        direct = instance.delay_pairs(clients, targets)
        for client in clients:
            if direct[client] <= instance.delay_bound:
                continue
            order = np.argsort(total_delay[client], kind="stable")
            for server in order:
                server = int(server)
                if server == targets[client]:
                    contacts[client] = server
                    break
                extra = 2.0 * instance.client_demands[client]
                if loads[server] + extra <= capacities[server] + 1e-9:
                    contacts[client] = server
                    loads[server] += extra
                    break

    return Assignment(
        zone_to_server=zones.zone_to_server,
        contact_of_client=contacts,
        algorithm="nearest-server",
        capacity_exceeded=zones.capacity_exceeded,
        runtime_seconds=timer.elapsed,
    )
