"""Test-only oracle: the batched contact-repair sweep, rescanning every client.

A frozen copy of the warm-start contact sweep
(``repro.core.local_search._repair_contacts_sweep``).  Every sweep rescans
every client still over the delay bound against every server, picks each
one's best strictly improving contact that had room at the start of the
sweep, admits the claims per destination server in client order while their
cumulative forwarding demand fits, and repeats until a sweep applies
nothing.  A faster sweep may rescan fewer clients or servers, but it must
apply the same moves: ``tests/test_core_local_search.py`` checks that the
engine's sweep leaves the same contacts, the same delay bits and the same
move count, on warm-start epochs of the figure-4 world and on drawn
tight-capacity instances.  It keeps its own capacity slack;
``delays_to_targets`` and ``server_loads`` are the library's plain gathers
and reductions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import server_loads
from repro.core.costs import delays_to_targets
from repro.core.problem import CAPInstance

#: Capacity slack of every feasibility check.
_CAP_EPS = 1e-9


def repair_contacts_sweep_full(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    max_sweeps: int = 50,
    delays: Optional[np.ndarray] = None,
) -> int:
    """Apply sweeps of improving contact moves until one applies nothing.

    ``delays``, when given, is the per-client delay vector; it is updated in
    place with every applied move.  Returns the number of moves applied.
    """
    zones_of = instance.client_zones
    bound = instance.delay_bound
    ssd = instance.server_server_delays
    capacities = instance.server_capacities
    num_servers = instance.num_servers

    if delays is None:
        delays = delays_to_targets(instance, zone_to_server, contacts)
    loads = server_loads(instance, zone_to_server, contacts)
    targets = zone_to_server[zones_of]

    applied_total = 0
    for _ in range(max_sweeps):
        if applied_total >= max_iterations:
            break
        over = np.flatnonzero(delays > bound)
        if over.size == 0:
            break
        over_targets = targets[over]
        demand2 = 2.0 * instance.client_demands[over]
        options = instance.delay_rows(over) + ssd.T[over_targets]  # (over, m); col == server
        # A candidate must strictly improve the client's delay and (unless it
        # is the target itself, which adds no load) fit the forwarding
        # overhead into the load as of the start of the sweep.
        is_target = np.arange(num_servers)[None, :] == over_targets[:, None]
        fits = is_target | (
            loads[None, :] + demand2[:, None] <= capacities[None, :] + _CAP_EPS
        )
        candidate = fits & (options < delays[over, None])
        has_move = candidate.any(axis=1)
        if not has_move.any():
            break
        rows = np.flatnonzero(has_move)
        masked = np.where(candidate[rows], options[rows], np.inf)
        chosen = masked.argmin(axis=1)
        new_delay = masked[np.arange(rows.size), chosen]

        # Contention resolution: clients claiming forwarding capacity on the
        # same server are admitted in client order while their cumulative
        # demand still fits; targets-as-contacts (zero extra load) always fit.
        claim = np.where(chosen == over_targets[rows], 0.0, demand2[rows])
        order = np.argsort(chosen, kind="stable")
        sorted_srv = chosen[order]
        sorted_claim = claim[order]
        csum = np.cumsum(sorted_claim)
        group_first = np.r_[True, sorted_srv[1:] != sorted_srv[:-1]]
        group_base = np.maximum.accumulate(np.where(group_first, csum - sorted_claim, 0.0))
        within_group = csum - group_base
        admitted_sorted = (sorted_claim == 0.0) | (
            loads[sorted_srv] + within_group <= capacities[sorted_srv] + _CAP_EPS
        )
        admitted = order[admitted_sorted]
        if admitted.size == 0:
            break
        if applied_total + admitted.size > max_iterations:
            admitted = admitted[: max_iterations - applied_total]

        moved_rows = rows[admitted]
        moved_clients = over[moved_rows]
        moved_to = chosen[admitted]
        old_contacts = contacts[moved_clients]
        was_forwarded = old_contacts != over_targets[moved_rows]
        if was_forwarded.any():
            np.subtract.at(
                loads, old_contacts[was_forwarded], demand2[moved_rows][was_forwarded]
            )
        now_forwarded = moved_to != over_targets[moved_rows]
        if now_forwarded.any():
            np.add.at(loads, moved_to[now_forwarded], demand2[moved_rows][now_forwarded])
        contacts[moved_clients] = moved_to
        delays[moved_clients] = new_delay[admitted]
        applied_total += int(admitted.size)
    return applied_total
