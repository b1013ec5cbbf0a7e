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
from repro.core.regret import max_regret_assign
from repro.utils.timing import Timer

__all__ = ["assign_zones_greedy", "zone_fallback_candidates"]


def zone_fallback_candidates(instance: CAPInstance) -> Optional[np.ndarray]:
    """``(num_servers, num_zones)`` candidate mask for the fallback, or ``None``.

    Only the sparse delay backend restricts each zone to a per-zone candidate
    server set; on dense instances every server is a candidate and the mask
    is ``None`` — GreZ then places exactly as it always has.
    With the mask, the ``least_loaded`` emergency placement becomes
    *delay-aware*: a zone that fits nowhere is placed on the least-loaded
    server **its clients can actually reach** instead of on whichever server
    happens to have the most residual capacity — which, under the sparse
    backend, is frequently a sentinel-delay (1e9 ms) server that zeroes the
    zone's pQoS contribution.
    """
    if instance.has_dense_delays:
        return None
    # (num_zones, num_servers), read-only, cached
    return instance.client_server_delays.candidate_mask().T


def _zone_candidate_table(instance: CAPInstance) -> Optional[np.ndarray]:
    """``(num_zones, K)`` candidate servers per zone (ascending ids), or ``None``.

    Only the sparse delay backend restricts zones to candidate sets.  Every
    client of a zone sees the sentinel delay on each non-candidate server,
    so that server's ``C^I`` is the whole zone population — the largest
    count the zone can have.  Every non-candidate is therefore no more
    desirable than the zone's least desirable candidate, which is the
    non-strict dominance contract of
    :func:`~repro.core.regret.max_regret_assign`'s ``candidate_servers``:
    the placement engine takes the regret order and its re-evaluation table
    from the candidates instead of partitioning all ``m`` servers per zone.
    ``None`` for dense instances, and for candidate sets too narrow to
    define a regret (``K < 2``).
    """
    if instance.has_dense_delays:
        return None
    table = instance.client_server_delays.sorted_candidates()
    return None if table.shape[1] < 2 else table


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
        desirability = initial_cost_matrix(instance)  # (m, n), fresh
        np.negative(desirability, out=desirability)
        result = max_regret_assign(
            desirability=desirability,
            demands=instance.zone_demands(),
            capacities=instance.server_capacities,
            fallback="least_loaded",
            recompute=recompute_regret,
            fallback_allowed=zone_fallback_candidates(instance),
            candidate_servers=_zone_candidate_table(instance),
        )
    return ZoneAssignment(
        zone_to_server=result.item_to_server,
        algorithm="grez" if not recompute_regret else "grez-dynamic",
        capacity_exceeded=result.capacity_exceeded,
        runtime_seconds=timer.elapsed,
    )
