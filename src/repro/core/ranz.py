"""RanZ — random assignment of zones to servers (IAP baseline heuristic).

From Section 3.1 of the paper: "zones are assigned to randomly selected
servers with the only concern of not overloading the servers.  The following
procedure is repeated until all zones have been assigned: first the zone with
the largest number of clients is selected, and then a random server with
sufficient capacity is selected to take it."

RanZ is delay-oblivious by design; it exists as the baseline that GreZ is
compared against (the paper's key claim is that delay awareness in the
*initial* phase is what matters most).
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import ZoneAssignment
from repro.core.problem import CAPInstance
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timing import Timer

__all__ = ["assign_zones_random"]


def assign_zones_random(instance: CAPInstance, seed: SeedLike = None) -> ZoneAssignment:
    """Assign every zone to a random server with sufficient residual capacity.

    Zones are processed in decreasing order of population (as in the paper's
    description) so that the bulky zones are placed while many servers still
    have room.  If no server can take a zone without exceeding its capacity,
    the zone is placed on the server with the largest residual capacity and
    the result is flagged ``capacity_exceeded``.

    Parameters
    ----------
    instance:
        The CAP instance.
    seed:
        RNG used for the random server choices.

    Returns
    -------
    ZoneAssignment
    """
    rng = as_generator(seed)
    with Timer() as timer:
        zone_demands = instance.zone_demands().tolist()
        populations = instance.zone_populations()
        capacities = instance.server_capacities.tolist()
        servers = range(instance.num_servers)
        loads = [0.0] * instance.num_servers
        zone_to_server = np.full(instance.num_zones, -1, dtype=np.int64)
        capacity_exceeded = False

        order = np.argsort(-populations, kind="stable").tolist()
        # The per-zone scan's test ``load + demand <= capacity + eps`` on
        # Python floats, so the feasible sets (ascending server ids), and
        # with them the RNG draws, are bit-identical to it.  While
        # consecutive zones have equal demand (common: population ties)
        # only the last zone's server can drop out of the set.
        slack = [capacity + 1e-9 for capacity in capacities]
        feasible: list[int] = []
        prev_demand: float | None = None
        prev_server = -1
        for zone in order:
            demand = zone_demands[zone]
            if demand != prev_demand:
                feasible = [s for s in servers if loads[s] + demand <= slack[s]]
            elif prev_server in feasible and not loads[prev_server] + demand <= slack[prev_server]:
                feasible.remove(prev_server)
            if feasible:
                # ``choice`` of a 1-D array is ``a[integers(0, a.size)]``: same draw, same state.
                server = feasible[int(rng.integers(0, len(feasible)))]
            else:
                # The first largest residual capacity, as ``np.argmax`` picks it.
                residual = [capacity - load for capacity, load in zip(capacities, loads)]
                server = residual.index(max(residual))
                capacity_exceeded = True
            zone_to_server[zone] = server
            loads[server] += demand
            prev_demand = demand
            prev_server = server

    return ZoneAssignment(
        zone_to_server=zone_to_server,
        algorithm="ranz",
        capacity_exceeded=capacity_exceeded,
        runtime_seconds=timer.elapsed,
    )
