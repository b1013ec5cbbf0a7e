"""Test-only oracle: the batched zone-move sweep that scores every zone.

A frozen copy of the warm-start zone-move sweep as it stood before the
sweep learned to score only the zones with a member over the delay bound.
Every sweep builds the full ``(zones, servers)`` delta matrices from
per-(zone, server) aggregates that are scattered with ``np.add.at`` over a
``(clients, servers)`` direct-delay matrix read through ``toarray()`` on an
unrestricted delay matrix (candidate-restricted matrices use their
node-space aggregates), admits each zone's best strictly improving move in
gain order, and repeats until a sweep applies nothing.  It keeps its own
capacity slack, so it shares no move-selection code with the engine it
checks; ``delays_to_targets`` and ``server_loads`` are the library's plain
gathers and reductions.  ``tests/test_core_local_search.py`` checks that
``repro.core.local_search._repair_zones_sweep`` applies the same moves and
leaves the same delay vector.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.assignment import server_loads
from repro.core.costs import delays_to_targets
from repro.core.problem import CAPInstance

#: Capacity slack of every feasibility check.
_CAP_EPS = 1e-9


def _zone_move_aggregates(
    instance: CAPInstance,
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """``(direct, within_matrix, excess_matrix, zone_sizes)`` over every zone.

    ``direct`` is ``None`` for candidate-restricted delay matrices, whose
    aggregates come from the node-space fast path.
    """
    num_zones, num_servers = instance.num_zones, instance.num_servers
    zones_of = instance.client_zones
    bound = instance.delay_bound
    zone_sizes = np.bincount(zones_of, minlength=num_zones)
    matrix = instance.client_server_delays
    if not matrix.is_unrestricted:
        within_matrix, excess_matrix = matrix.zone_direct_aggregates(
            bound, zones_of, num_zones, np.diag(instance.server_server_delays)
        )
        return None, within_matrix, excess_matrix, zone_sizes
    direct = matrix.toarray() + np.diag(instance.server_server_delays)[None, :]
    within_matrix = np.zeros((num_zones, num_servers), dtype=np.float64)
    excess_matrix = np.zeros_like(within_matrix)
    if instance.num_clients:
        np.add.at(within_matrix, zones_of, (direct <= bound).astype(float))
        np.add.at(excess_matrix, zones_of, np.maximum(direct - bound, 0.0))
    return direct, within_matrix, excess_matrix, zone_sizes


def repair_zones_sweep_full(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    max_sweeps: int = 20,
    delays: Optional[np.ndarray] = None,
) -> int:
    """Oracle for ``_repair_zones_sweep``; mutates the arrays in place."""
    num_zones, num_servers = instance.num_zones, instance.num_servers
    if num_zones == 0 or num_servers <= 1 or instance.num_clients == 0:
        return 0
    zones_of = instance.client_zones
    bound = instance.delay_bound
    capacities = instance.server_capacities
    zone_demands = instance.zone_demands()

    direct, within_matrix, excess_matrix, zone_sizes = _zone_move_aggregates(instance)
    self_delays = None if direct is not None else np.diag(instance.server_server_delays)

    member_order = np.argsort(zones_of, kind="stable")
    member_starts = np.r_[0, np.cumsum(zone_sizes)]

    if delays is None:
        delays = delays_to_targets(instance, zone_to_server, contacts)
    loads = server_loads(instance, zone_to_server, contacts)

    applied_total = 0
    for _ in range(max_sweeps):
        if applied_total >= max_iterations:
            break
        within = delays <= bound
        excess_vec = np.maximum(delays - bound, 0.0)
        within_current = np.bincount(
            zones_of, weights=within.astype(np.float64), minlength=num_zones
        )
        excess_current = np.bincount(zones_of, weights=excess_vec, minlength=num_zones)

        qos_delta = within_matrix - within_current[:, None]
        excess_delta = excess_matrix - excess_current[:, None]
        fits = loads[None, :] + zone_demands[:, None] <= capacities[None, :] + _CAP_EPS
        fits[np.arange(num_zones), zone_to_server] = False
        fits[zone_sizes == 0, :] = False
        improving = fits & ((qos_delta > 0) | ((qos_delta == 0) & (excess_delta < 0)))
        if not improving.any():
            break

        qos_masked = np.where(improving, qos_delta, -np.inf)
        best_qos = qos_masked.max(axis=1)
        candidate_zones = np.flatnonzero(best_qos > -np.inf)
        excess_masked = np.where(
            improving & (qos_delta == best_qos[:, None]), excess_delta, np.inf
        )
        best_server = excess_masked.argmin(axis=1)
        gain_order = np.lexsort(
            (
                excess_masked[candidate_zones, best_server[candidate_zones]],
                -best_qos[candidate_zones],
            )
        )

        applied_this_sweep = 0
        for zone in candidate_zones[gain_order]:
            if applied_total >= max_iterations:
                break
            zone = int(zone)
            server = int(best_server[zone])
            if loads[server] + zone_demands[zone] > capacities[server] + _CAP_EPS:
                continue
            members = member_order[member_starts[zone]: member_starts[zone + 1]]
            old_server = int(zone_to_server[zone])
            forwarded = members[contacts[members] != old_server]
            if forwarded.size:
                np.subtract.at(
                    loads, contacts[forwarded], 2.0 * instance.client_demands[forwarded]
                )
            loads[old_server] -= zone_demands[zone]
            loads[server] += zone_demands[zone]
            zone_to_server[zone] = server
            contacts[members] = server
            if direct is not None:
                delays[members] = direct[members, server]
            else:
                delays[members] = instance.delay_pairs(members, server) + self_delays[server]
            applied_total += 1
            applied_this_sweep += 1
        if applied_this_sweep == 0:
            break
    return applied_total
