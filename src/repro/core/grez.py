"""GreZ — greedy (max-regret) assignment of zones to servers.

From Section 3.1 / Figure 2 of the paper: GreZ minimises the number of clients
without QoS by treating the IAP as a Generalized Assignment Problem and
applying a max-regret greedy heuristic.  For every zone ``z_j`` and server
``s_i`` the desirability is ``mu[i, j] = -C^I_ij`` (the negated count of
clients of ``z_j`` that would miss the delay bound on ``s_i``); zones are
processed in decreasing order of regret (the gap between their best and
second-best desirability) and each is given its most desirable server with
sufficient residual capacity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import ZoneAssignment
from repro.core.costs import initial_cost_matrix
from repro.core.problem import CAPInstance
from repro.core.regret import RegretResult, max_regret_assign, max_regret_assign_candidates
from repro.utils.timing import Timer

__all__ = ["assign_zones_greedy", "zone_fallback_candidates"]


def zone_fallback_candidates(instance: CAPInstance) -> np.ndarray:
    """``(num_servers, num_zones)`` candidate mask for the fallback.

    The sparse delay backend restricts each zone to a per-zone candidate
    server set; on an unrestricted matrix every server is a candidate and
    the mask is all ``True``, which leaves the fallback fleet-wide.
    With the mask, the ``least_loaded`` emergency placement becomes
    *delay-aware*: a zone that fits nowhere is placed on the least-loaded
    server **its clients can actually reach** instead of on whichever server
    happens to have the most residual capacity — which, under the sparse
    backend, is frequently a sentinel-delay (1e9 ms) server that zeroes the
    zone's pQoS contribution.
    """
    # (num_zones, num_servers), read-only, cached
    return instance.client_server_delays.candidate_mask().T


def _place_on_candidates(instance: CAPInstance) -> Optional[RegretResult]:
    """GreZ's static placement from the matrix's cost table, or ``None``.

    The matrix holds ``C^I`` on each zone's K candidates
    (:meth:`~repro.topology.delay_backends.CompactDelayMatrix.over_bound_table`,
    carried through churn).  Every client of a zone sees the sentinel delay
    on each non-candidate server, so that server's ``C^I`` is the whole zone
    population — the largest count the zone can have.  Every non-candidate
    is therefore no more desirable than any candidate, the non-strict
    contract of :func:`~repro.core.regret.max_regret_assign_candidates` with
    the negated populations as its floor: a candidate hit tied at the floor
    falls through to a full row, built from the table and the population.
    No ``(zones × servers)`` cost table is made.  ``None`` for candidate
    sets too narrow to define a regret (``K < 2``) and for sets of every
    server, whose table is the full ``C^I`` the full-matrix pass reads.
    """
    delays = instance.client_server_delays
    servers = delays.sorted_candidates()
    if not 2 <= servers.shape[1] < instance.num_servers:
        return None
    counts = delays.over_bound_table(instance.delay_bound)
    floor = -instance.zone_populations().astype(np.float64)

    def full_rows(items: np.ndarray) -> np.ndarray:
        rows = np.empty((items.size, instance.num_servers))
        rows[...] = floor[items, None]
        np.put_along_axis(rows, servers[items], -counts[items], axis=1)
        return rows

    return max_regret_assign_candidates(
        candidate_servers=servers,
        item_rows=np.arange(instance.num_zones),
        candidate_desirability=np.negative(counts, dtype=np.float64),
        num_servers=instance.num_servers,
        demands=instance.zone_demands(),
        capacities=instance.server_capacities,
        row_provider=full_rows,
        fallback_allowed=zone_fallback_candidates(instance),
        floor=floor,
    )


def assign_zones_greedy(
    instance: CAPInstance,
    recompute_regret: bool = False,
) -> ZoneAssignment:
    """Assign zones to servers with the max-regret greedy heuristic (GreZ).

    Parameters
    ----------
    instance:
        The CAP instance.
    recompute_regret:
        When True, regrets are recomputed after every placement (dynamic
        variant, used by the ablation experiment); the paper's pseudocode
        computes them once, which is the default.

    Returns
    -------
    ZoneAssignment
        The zone → server map; ``capacity_exceeded`` is set if some zone had
        to be placed on a server without sufficient residual capacity.
    """
    with Timer() as timer:
        result = None if recompute_regret else _place_on_candidates(instance)
        if result is None:
            desirability = initial_cost_matrix(instance)  # (m, n), fresh
            np.negative(desirability, out=desirability)
            result = max_regret_assign(
                desirability=desirability,
                demands=instance.zone_demands(),
                capacities=instance.server_capacities,
                fallback="least_loaded",
                recompute=recompute_regret,
                fallback_allowed=zone_fallback_candidates(instance),
            )
    return ZoneAssignment(
        zone_to_server=result.item_to_server,
        algorithm="grez" if not recompute_regret else "grez-dynamic",
        capacity_exceeded=result.capacity_exceeded,
        runtime_seconds=timer.elapsed,
    )
