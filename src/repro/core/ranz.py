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
        zone_demands = instance.zone_demands()
        populations = instance.zone_populations()
        capacities = instance.server_capacities
        loads = np.zeros(instance.num_servers, dtype=np.float64)
        zone_to_server = np.full(instance.num_zones, -1, dtype=np.int64)
        capacity_exceeded = False

        order = np.argsort(-populations, kind="stable")
        # The feasibility mask is maintained incrementally: placing a zone
        # changes one server's load, so while consecutive zones have equal
        # demand (common — zone demand is a function of the population, and
        # the multinomial population draw produces many ties) only that one
        # entry needs re-checking.  The predicate keeps the exact spelling of
        # the original per-zone scan (``loads + demand <= capacities + eps``),
        # so the feasible sets — and therefore the RNG draw sequence — are
        # bit-identical to it.
        slack = capacities + 1e-9
        feasible_mask = np.zeros(instance.num_servers, dtype=bool)
        prev_demand: float | None = None
        prev_server = -1
        for zone in order:
            demand = zone_demands[zone]
            if demand == prev_demand:
                feasible_mask[prev_server] = loads[prev_server] + demand <= slack[prev_server]
            else:
                np.less_equal(loads + demand, slack, out=feasible_mask)
            feasible = np.flatnonzero(feasible_mask)
            if feasible.size:
                # ``choice`` of a 1-D array is ``a[integers(0, a.size)]``: same draw, same state.
                server = int(feasible[rng.integers(0, feasible.size)])
            else:
                server = int(np.argmax(capacities - loads))
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
