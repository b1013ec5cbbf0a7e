"""Local-search refinement of CAP solutions (extension beyond the paper).

The paper stops at the one-pass greedy heuristics and notes that better
solutions are possible when time allows.  This module implements the natural
next step: :func:`warm_start_refine`, a capacity-respecting sweep refiner over
a complete :class:`~repro.core.assignment.Assignment` that applies batches of
improving moves until a sweep applies nothing (or an iteration budget is
exhausted).  Two move types are considered:

* **zone move** — re-host one zone on a different server (all its clients
  then connect directly to the new host, the GreC base case);
* **contact move** — switch one client's contact server.

The objective mirrors the paper's: primarily maximise the number of clients
with QoS, secondarily minimise the total excess delay of the clients without
QoS (so progress is visible even when a single move cannot flip a client
across the bound).

Each sweep scores its neighbourhood with NumPy delta-cost matrices — one
``(over-bound zones, servers)`` objective matrix for zone moves and one
``(over-bound clients, servers)`` matrix for contact moves — so a sweep is a
handful of array operations.  The zone-move sweep
(:func:`_repair_zones_sweep`) scores only the zones that have a member over
the delay bound.  That is exact: a zone whose members all meet the bound
cannot gain QoS from a move and has no excess to shed, so it is never an
improving move.  A sweep's setup is then O(clients) plus O(over-bound zones'
members × servers) instead of O(clients × servers).  Both sweeps have a
frozen test-only oracle: ``tests/reference/zone_sweep_full.py`` scores every
zone and ``tests/reference/contact_sweep_full.py`` rescans every client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.assignment import Assignment, server_loads
from repro.core.costs import delays_to_targets
from repro.core.measures import attach_measures, measured_pqos
from repro.core.problem import CAPInstance
from repro.utils.distinct import sorted_distinct
from repro.utils.timing import Timer

__all__ = ["LocalSearchResult", "warm_start_refine"]

#: Capacity slack used by every feasibility check (matches the heuristics).
_CAP_EPS = 1e-9


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a local-search refinement pass.

    Attributes
    ----------
    assignment:
        The refined assignment (algorithm name suffixed with ``+ws``).
    iterations:
        Number of improving moves applied.
    initial_pqos / final_pqos:
        Objective before and after refinement.
    runtime_seconds:
        Wall-clock time of the search.
    """

    assignment: Assignment
    iterations: int
    initial_pqos: float
    final_pqos: float
    runtime_seconds: float


def _repair_contacts_sweep(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    max_sweeps: int = 50,
    delays: Optional[np.ndarray] = None,
    loads: Optional[np.ndarray] = None,
) -> int:
    """Batched contact repair: apply a whole sweep of improving moves at once.

    ``delays`` optionally seeds (and receives, mutated in place) the
    maintained per-client delay vector — see :func:`warm_start_refine` for
    the bit-identity contract.  ``loads`` likewise optionally seeds the
    per-server loads; it must equal ``server_loads`` of the given arrays
    bit for bit, and is mutated in place.

    Each sweep picks, for every over-bound client, its best *strictly
    improving* contact server that had room at the start of the sweep, then
    resolves capacity contention per destination server with a prefix sum in
    client order (later claimants that would overflow wait for the next
    sweep, when the loads they freed elsewhere are also visible).  Sweeps
    repeat until one applies nothing.  The sweep does not pick the globally
    best move per round: it runs O(sweeps) vectorised scans instead of
    O(moves), which is what makes the per-epoch repair cost of a
    longitudinal simulation proportional to the churn, not to the
    population.  The objective never worsens: every applied move strictly
    reduces its client's delay.
    """
    bound = instance.delay_bound
    ssd = instance.server_server_delays
    room = instance.server_capacities + _CAP_EPS
    server_ids = np.arange(instance.num_servers)

    if delays is None:
        delays = delays_to_targets(instance, zone_to_server, contacts)
    if loads is None:
        loads = server_loads(instance, zone_to_server, contacts)

    # A move only lowers its client's delay, so each sweep's over-bound
    # clients are a subset of the previous sweep's, in the same order, and
    # their rows of the first sweep's arrays are sliced instead of rebuilt.
    over = np.flatnonzero(delays > bound)
    over_targets = zone_to_server[instance.client_zones[over]]
    demand2 = 2.0 * instance.client_demands[over]
    options = instance.delay_rows(over) + ssd.T[over_targets]  # (over, m); col == server
    is_target = server_ids == over_targets[:, None]

    applied_total = 0
    for sweep in range(max_sweeps):
        if applied_total >= max_iterations:
            break
        if sweep:
            still = delays[over] > bound
            over = over[still]
            over_targets = over_targets[still]
            demand2 = demand2[still]
            options = options[still]
            is_target = is_target[still]
        if over.size == 0:
            break
        # A candidate must strictly improve the client's delay and (unless it
        # is the target itself, which adds no load) fit the forwarding
        # overhead into the load as of the start of the sweep.
        candidate = (is_target | (loads + demand2[:, None] <= room)) & (
            options < delays[over, None]
        )
        has_move = candidate.any(axis=1)
        rows = np.flatnonzero(has_move)
        if rows.size == 0:
            break
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
        group_first = np.empty(sorted_srv.size, dtype=bool)
        group_first[0] = True
        np.not_equal(sorted_srv[1:], sorted_srv[:-1], out=group_first[1:])
        group_base = np.maximum.accumulate(np.where(group_first, csum - sorted_claim, 0.0))
        within_group = csum - group_base
        admitted_sorted = (sorted_claim == 0.0) | (
            loads[sorted_srv] + within_group <= room[sorted_srv]
        )
        admitted = order[admitted_sorted]
        if admitted.size == 0:
            break
        if applied_total + admitted.size > max_iterations:
            admitted = admitted[: max_iterations - applied_total]

        moved_rows = rows[admitted]
        moved_clients = over[moved_rows]
        moved_to = chosen[admitted]
        moved_targets = over_targets[moved_rows]
        moved_demand2 = demand2[moved_rows]
        old_contacts = contacts[moved_clients]
        was_forwarded = old_contacts != moved_targets
        if was_forwarded.any():
            np.subtract.at(loads, old_contacts[was_forwarded], moved_demand2[was_forwarded])
        now_forwarded = moved_to != moved_targets
        if now_forwarded.any():
            np.add.at(loads, moved_to[now_forwarded], moved_demand2[now_forwarded])
        contacts[moved_clients] = moved_to
        delays[moved_clients] = new_delay[admitted]
        applied_total += int(admitted.size)
    return applied_total


def _repair_zones_sweep(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    max_sweeps: int = 20,
    delays: Optional[np.ndarray] = None,
    loads: Optional[np.ndarray] = None,
) -> int:
    """Batched zone-move repair: one ``(over-bound zones, servers)`` scan per sweep.

    ``delays`` and ``loads`` optionally seed (and receive, mutated in place)
    the maintained per-client delay and per-server load vectors, as in
    :func:`_repair_contacts_sweep`.

    Each sweep evaluates, for every zone with a member over the bound, the
    objective delta of re-hosting it on every other server (members
    reconnect directly — the GreC base case), picks each zone's best
    strictly-improving destination that fits the sweep-start loads, and then
    admits the candidate moves greedily in gain order with incrementally
    updated loads (a move whose headroom was consumed by an earlier
    admission waits for the next sweep).  Because a zone move only changes
    its *own* members' delays, the objective deltas of distinct zones are
    additive, so every admitted move still strictly improves the global
    objective.  Feasibility checks only the destination fit: a zone move
    sheds load everywhere else (forwarding of its members is released), so
    no other server can end worse off.

    Scoring only the zones with a member over the bound is exact.  A zone
    whose members all meet the bound has, on every server, a qos delta
    ``<= 0`` (all its members already count) and an excess delta ``>= 0``
    (its current excess is zero), so it is never improving and never a
    candidate.  The scored rows keep ascending zone order, so the gain
    order and every tie-break match a sweep over every zone.  A sweep's
    setup is O(clients) plus O(scored members × servers); no ``(clients,
    servers)`` matrix is built and no full client array is sorted.

    This is the neighbourhood that recovers hotspot *shifts*: after churn
    concentrates population in new zones, contact repairs alone cannot move
    the hosting, while a handful of zone moves re-balances the fleet at a
    cost proportional to the number of sweeps, not the population.
    """
    num_zones, num_servers = instance.num_zones, instance.num_servers
    if num_zones == 0 or num_servers <= 1 or instance.num_clients == 0:
        return 0
    zones_of = instance.client_zones
    bound = instance.delay_bound
    capacities = instance.server_capacities
    zone_demands = instance.zone_demands()
    self_delays = np.diag(instance.server_server_delays)
    # Each sweep's (within, excess) rows of a zone move to every server:
    # the matrix decides how they are summed.
    aggregates = instance.client_server_delays.zone_move_aggregates(bound, self_delays)

    if delays is None:
        delays = delays_to_targets(instance, zone_to_server, contacts)
    if loads is None:
        loads = server_loads(instance, zone_to_server, contacts)

    applied_total = 0
    for _ in range(max_sweeps):
        if applied_total >= max_iterations:
            break
        over = delays > bound
        zones = sorted_distinct(zones_of[over])  # the only zones a move can improve
        if zones.size == 0:
            break
        zone_rows = np.full(num_zones, -1, dtype=np.int64)
        zone_rows[zones] = np.arange(zones.size)
        member_rows = zone_rows[zones_of]
        members = np.flatnonzero(member_rows >= 0)  # ascending client ids
        member_rows = member_rows[members]
        within_current = np.bincount(
            member_rows, weights=(~over[members]).astype(np.float64), minlength=zones.size
        )
        excess_current = np.bincount(
            member_rows,
            weights=np.maximum(delays[members] - bound, 0.0),
            minlength=zones.size,
        )
        within_matrix, excess_matrix = aggregates(zones, members, member_rows)

        qos_delta = within_matrix - within_current[:, None]
        excess_delta = excess_matrix - excess_current[:, None]
        fits = loads[None, :] + zone_demands[zones, None] <= capacities[None, :] + _CAP_EPS
        fits[np.arange(zones.size), zone_to_server[zones]] = False
        improving = fits & ((qos_delta > 0) | ((qos_delta == 0) & (excess_delta < 0)))
        if not improving.any():
            break

        qos_masked = np.where(improving, qos_delta, -np.inf)
        best_qos = qos_masked.max(axis=1)
        candidates = np.flatnonzero(best_qos > -np.inf)
        excess_masked = np.where(
            improving & (qos_delta == best_qos[:, None]), excess_delta, np.inf
        )
        best_server = excess_masked.argmin(axis=1)
        # Admit the biggest gains first (qos gain desc, excess delta asc).
        gain_order = np.lexsort(
            (excess_masked[candidates, best_server[candidates]], -best_qos[candidates])
        )

        applied_this_sweep = 0
        for row in candidates[gain_order]:
            if applied_total >= max_iterations:
                break
            zone = int(zones[row])
            server = int(best_server[row])
            if loads[server] + zone_demands[zone] > capacities[server] + _CAP_EPS:
                continue  # an earlier admission consumed the headroom
            zone_members = members[member_rows == row]
            old_server = int(zone_to_server[zone])
            forwarded = zone_members[contacts[zone_members] != old_server]
            if forwarded.size:
                np.subtract.at(
                    loads, contacts[forwarded], 2.0 * instance.client_demands[forwarded]
                )
            loads[old_server] -= zone_demands[zone]
            loads[server] += zone_demands[zone]
            zone_to_server[zone] = server
            contacts[zone_members] = server
            delays[zone_members] = (
                instance.delay_pairs(zone_members, server) + self_delays[server]
            )
            applied_total += 1
            applied_this_sweep += 1
        if applied_this_sweep == 0:
            break
    return applied_total


def warm_start_refine(
    instance: CAPInstance,
    assignment: Assignment,
    max_iterations: int = 200,
    consider_zone_moves: bool = False,
    loads: Optional[np.ndarray] = None,
) -> LocalSearchResult:
    """Warm-start refinement: repair a carried-over assignment after churn.

    Seeds the repair with the given assignment (typically the pre-churn
    assignment carried over to the post-churn instance) and maintains
    per-server load and per-client delay accumulators across moves instead of
    recomputing them every sweep.  Each sweep applies a whole batch of
    improving moves between scans (:func:`_repair_contacts_sweep`), so with
    small churn only the handful of clients pushed over the bound are
    scanned and the repair costs roughly O(changed clients × servers) — the
    cheap alternative to re-executing the two-phase algorithm from scratch.
    The move order is greedy per zone / client, not globally best-first.

    Zone moves are off by default (re-hosting a zone is the expensive
    neighbourhood and, without infrastructure churn, rarely pays off for
    small churn).  With ``consider_zone_moves=True`` the batched zone-move
    sweep (:func:`_repair_zones_sweep`) runs *before* the contact sweep,
    which is what lets the warm-start policy recover hotspot shifts and
    evacuated zones without a full re-execution.  ``max_iterations`` caps
    the moves of both sweeps together.  ``capacity_exceeded`` on the result
    is recomputed against the instance rather than inherited, so a repair
    that ends within capacity clears a stale flag.

    The per-client delay vector is maintained in place across moves.  Every
    update writes the same two-term gather sum a fresh recompute would, so
    the maintained vector stays bit-identical to ``delays_to_targets`` of
    the refined arrays.  It is attached to the result by reference as a
    measurement stash (:func:`repro.core.measures.attach_measures` — no
    copy, the array is frozen read-only), together with the freshly reduced
    server loads.  ``initial_pqos`` / ``final_pqos`` are exact
    count-over-population divisions, bit-identical to ``Assignment.pqos``.

    ``loads`` optionally supplies the assignment's per-server loads on
    ``instance`` when the caller already reduced them (the engine's
    carry-over does, for its capacity flag); it must equal
    ``assignment.server_loads(instance)`` bit for bit, and the refiner takes
    it over and updates it in place.  Maintained loads are not
    bit-identical to a fresh reduction, so one is taken for the sweeps
    (unless supplied), one after a zone sweep that moved something, and one
    for the stash unless the contact sweep moved nothing.
    """
    zone_to_server = assignment.zone_to_server.copy()
    contacts = assignment.contact_of_client.copy()
    delays = delays_to_targets(instance, zone_to_server, contacts)
    if instance.num_clients:
        initial_pqos = int(np.count_nonzero(delays <= instance.delay_bound)) / instance.num_clients
    else:
        initial_pqos = 1.0
    if loads is None:
        loads = server_loads(instance, zone_to_server, contacts)

    with Timer() as timer:
        iterations = 0
        if consider_zone_moves:
            iterations += _repair_zones_sweep(
                instance, zone_to_server, contacts, max_iterations, delays=delays, loads=loads
            )
            if iterations:
                loads = server_loads(instance, zone_to_server, contacts)
        contact_moves = 0
        if iterations < max_iterations:
            contact_moves = _repair_contacts_sweep(
                instance,
                zone_to_server,
                contacts,
                max_iterations - iterations,
                delays=delays,
                loads=loads,
            )
            iterations += contact_moves

    # Maintained loads drift from a fresh reduction by rounding, so the
    # stash gets a fresh one; ``loads`` still is one when no contact moved.
    final_loads = loads if contact_moves == 0 else server_loads(instance, zone_to_server, contacts)
    refined = Assignment(
        zone_to_server=zone_to_server,
        contact_of_client=contacts,
        algorithm=f"{assignment.algorithm}+ws",
        capacity_exceeded=bool((final_loads > instance.server_capacities * (1.0 + 1e-6)).any()),
        runtime_seconds=assignment.runtime_seconds + timer.elapsed,
        metadata={**assignment.metadata, "warm_start_iterations": iterations},
    )
    attach_measures(refined, instance, delays, final_loads)
    return LocalSearchResult(
        assignment=refined,
        iterations=iterations,
        initial_pqos=initial_pqos,
        final_pqos=measured_pqos(refined, instance),
        runtime_seconds=timer.elapsed,
    )
