"""Local-search refinement of CAP solutions (extension beyond the paper).

The paper stops at the one-pass greedy heuristics and notes that better
solutions are possible when time allows.  This module implements the natural
next step: a capacity-respecting hill-climbing pass over a complete
:class:`~repro.core.assignment.Assignment` that repeatedly applies the best
improving move until no move improves the objective (or an iteration budget is
exhausted).  Two move types are considered:

* **zone move** — re-host one zone on a different server (changing the target
  server of all its clients, whose contact servers are then re-derived with
  the GreC rule for the affected clients);
* **contact move** — switch one client's contact server.

The objective mirrors the paper's: primarily maximise the number of clients
with QoS, secondarily minimise the total excess delay of the clients without
QoS (so progress is visible even when a single move cannot flip a client
across the bound).

The search evaluates the whole zone-move neighbourhood with NumPy
delta-cost matrices — one ``(zones, servers)`` objective matrix and one
feasibility matrix per sweep — and the contact-move neighbourhood with one
``(over-bound clients, servers)`` matrix, so a full improvement sweep is a
handful of array operations.  The nested Python scan that specifies the
move-acceptance semantics is kept as a test-only oracle
(``tests/reference/local_search_loop.py``); the test suite checks that both
apply the same moves on small and generated instances.

The warm-start zone-move sweep (:func:`_repair_zones_sweep`) scores only the
zones that have a member over the delay bound.  That is exact: a zone whose
members all meet the bound cannot gain QoS from a move and has no excess to
shed, so it is never an improving move.  A sweep's setup is then O(clients)
plus O(over-bound zones' members × servers) instead of O(clients ×
servers).  The score-every-zone sweep is kept as a test-only oracle
(``tests/reference/zone_sweep_full.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.assignment import Assignment, server_loads
from repro.core.costs import delays_to_targets
from repro.core.measures import attach_measures, measured_pqos
from repro.core.problem import CAPInstance
from repro.utils.distinct import sorted_distinct
from repro.utils.scatter import scatter_add_2d
from repro.utils.timing import Timer

__all__ = ["LocalSearchResult", "refine_assignment", "warm_start_refine"]

#: Capacity slack used by every feasibility check (matches the heuristics).
_CAP_EPS = 1e-9


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a local-search refinement pass.

    Attributes
    ----------
    assignment:
        The refined assignment (algorithm name suffixed with ``+ls``).
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


# --------------------------------------------------------------------------- #
# Best-move search — delta-cost matrices instead of nested scans.
# --------------------------------------------------------------------------- #
def _zone_move_aggregates(
    instance: CAPInstance,
    members: Optional[np.ndarray] = None,
    member_rows: Optional[np.ndarray] = None,
    num_rows: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-(zone, server) within-bound counts and excess sums of zone moves.

    A zone moved to host ``s`` reconnects its members directly, so each
    member's post-move delay is ``delay(c, s) + ssd[s, s]`` (the self-delay
    diagonal term is normally zero but kept for exact parity with the
    oracles).  Returns ``(within_matrix, excess_matrix)``: per zone row and
    server, the count of members whose direct delay meets the bound and the
    sum of their excess ``max(direct - bound, 0)``.

    By default every zone is a row (row = zone id).  Given ``members``
    (ascending client ids) and ``member_rows`` (each member's row in
    ``[0, num_rows)``), only those rows are built, from a ``(members,
    servers)`` gather — the zone-move sweep passes the zones that have a
    member over the bound, since no other zone can gain from a move.  The
    sums are flat ``np.bincount`` scatter-adds (:func:`scatter_add_2d`): each
    cell adds its members in ascending client order from ``0.0``, so a row
    is bit-identical to the same zone's row of the every-zone build.

    Compact delay sources take the node-space fast path for every zone (a
    different summation order, so a row subset is sliced from it rather
    than gathered); they accept no ``members``.
    """
    bound = instance.delay_bound
    self_delays = np.diag(instance.server_server_delays)
    if members is None:
        if not instance.has_dense_delays:
            return instance.client_server_delays.zone_direct_aggregates(
                bound, instance.client_zones, instance.num_zones, self_delays
            )
        member_delays = instance.client_server_delays
        member_rows, num_rows = instance.client_zones, instance.num_zones
    else:
        member_delays = instance.delay_rows(members)
    direct = member_delays + self_delays[None, :]
    shape = (num_rows, instance.num_servers)
    within_matrix = scatter_add_2d(shape, member_rows, direct <= bound)
    excess_matrix = scatter_add_2d(shape, member_rows, np.maximum(direct - bound, 0.0))
    return within_matrix, excess_matrix


def _best_zone_move(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    loads: np.ndarray,
    within: np.ndarray,
    excess_vec: np.ndarray,
    qos_count: int,
    excess_total: float,
    within_matrix: np.ndarray,
    excess_matrix: np.ndarray,
) -> Optional[Tuple[int, float, int, int]]:
    """Best improving zone move as ``(qos, excess, zone, server)``, or None.

    Mirrors the nested scan exactly: a move is improving when its objective
    strictly beats the current one, and ties between improving moves resolve
    to the first in (zone-major, server-minor) order because later candidates
    must *strictly* beat the incumbent.
    """
    num_zones, num_servers = instance.num_zones, instance.num_servers
    if num_zones == 0 or num_servers == 0:
        return None
    zones_of = instance.client_zones
    capacities = instance.server_capacities
    zone_demands = instance.zone_demands()
    old_servers = zone_to_server

    # Objective after moving zone j to server s, via per-zone deltas:
    # members reconnect directly, everyone else's delay is unchanged.
    within_current = np.bincount(zones_of, weights=within.astype(np.float64), minlength=num_zones)
    excess_current = np.bincount(zones_of, weights=excess_vec, minlength=num_zones)
    qos_after = qos_count - within_current[:, None] + within_matrix
    excess_after = excess_total - excess_current[:, None] + excess_matrix

    # Load after the move: the zone's demand migrates from its old host to s
    # and the forwarding overhead of its currently-forwarded members vanishes
    # (they reconnect directly to the new host).
    targets = old_servers[zones_of]
    forwarded = contacts != targets
    forwarding_released = scatter_add_2d(
        (num_zones, num_servers),
        zones_of[forwarded],
        2.0 * instance.client_demands[forwarded],
        cols=contacts[forwarded],
    )
    trial_base = loads[None, :] - forwarding_released
    trial_base[np.arange(num_zones), old_servers] -= zone_demands

    # Full feasibility: every server must end within capacity.  Servers other
    # than the destination only ever lose load, but a pre-existing overload
    # elsewhere still vetoes the move (as in the nested scan's trial check).
    over_matrix = trial_base > capacities[None, :] + _CAP_EPS
    over_elsewhere = over_matrix.sum(axis=1)[:, None] - over_matrix
    feasible = over_elsewhere == 0
    feasible &= trial_base + zone_demands[:, None] <= capacities[None, :] + _CAP_EPS
    # The nested scan's cheap pre-check uses the *unreduced* loads; keep it so the
    # accepted move set is identical.
    feasible &= loads[None, :] + zone_demands[:, None] <= capacities[None, :] + _CAP_EPS
    feasible[np.arange(num_zones), old_servers] = False
    feasible[instance.zone_populations() == 0, :] = False

    improving = feasible & (
        (qos_after > qos_count) | ((qos_after == qos_count) & (excess_after < excess_total))
    )
    if not improving.any():
        return None
    qos_masked = np.where(improving, qos_after, -np.inf)
    best_qos = qos_masked.max()
    excess_masked = np.where(improving & (qos_after == best_qos), excess_after, np.inf)
    best_excess = excess_masked.min()
    flat = int(np.flatnonzero((qos_masked == best_qos) & (excess_masked == best_excess))[0])
    zone, server = divmod(flat, num_servers)
    return int(best_qos), float(best_excess), int(zone), int(server)


def _best_contact_move(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    loads: np.ndarray,
    delays: np.ndarray,
    excess_vec: np.ndarray,
    qos_count: int,
    excess_total: float,
    incumbent: Optional[Tuple[int, float]],
) -> Optional[Tuple[int, float, int, int]]:
    """Best improving contact move as ``(qos, excess, client, server)``, or None.

    Per the nested-scan semantics each over-bound client contributes exactly one
    candidate — its delay-wise best feasible server other than its current
    contact — and a candidate must strictly beat both the current objective
    and the incumbent (the best zone move, then earlier clients).
    """
    over_clients = np.flatnonzero(delays > instance.delay_bound)
    if over_clients.size == 0:
        return None
    num_servers = instance.num_servers
    capacities = instance.server_capacities
    targets = zone_to_server[instance.client_zones][over_clients]
    demands = instance.client_demands[over_clients]
    rows = np.arange(over_clients.size)

    # options[c, s] = d(c, s) + d(s, target_c); forwarding costs 2·RT(c) at s
    # unless s already is the target.
    options = instance.delay_rows(over_clients) + instance.server_server_delays.T[targets]
    extra = 2.0 * demands[:, None] * (np.arange(num_servers)[None, :] != targets[:, None])
    feasible = loads[None, :] + extra <= capacities[None, :] + _CAP_EPS
    feasible[rows, contacts[over_clients]] = False  # staying put is not a move

    order = np.argsort(options, axis=1, kind="stable")
    feasible_sorted = np.take_along_axis(feasible, order, axis=1)
    has_candidate = feasible_sorted.any(axis=1)
    first = feasible_sorted.argmax(axis=1)
    chosen = order[rows, first]
    new_delay = options[rows, chosen]

    qos_after = qos_count + (new_delay <= instance.delay_bound)
    excess_after = (
        excess_total
        - excess_vec[over_clients]
        + np.maximum(new_delay - instance.delay_bound, 0.0)
    )
    valid = has_candidate & (
        (qos_after > qos_count) | ((qos_after == qos_count) & (excess_after < excess_total))
    )
    if incumbent is not None:
        inc_qos, inc_excess = incumbent
        valid &= (qos_after > inc_qos) | ((qos_after == inc_qos) & (excess_after < inc_excess))
    if not valid.any():
        return None
    qos_masked = np.where(valid, qos_after, -np.inf)
    best_qos = qos_masked.max()
    excess_masked = np.where(valid & (qos_after == best_qos), excess_after, np.inf)
    best_excess = excess_masked.min()
    row = int(np.flatnonzero((qos_masked == best_qos) & (excess_masked == best_excess))[0])
    return int(best_qos), float(best_excess), int(over_clients[row]), int(chosen[row])


def _refine_vectorized(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    consider_zone_moves: bool,
    consider_contact_moves: bool,
) -> int:
    """Delta-cost-matrix hill climber; mutates the arrays in place."""
    zones_of = instance.client_zones
    bound = instance.delay_bound
    # Members of a moved zone always connect directly to the new host.
    within_matrix, excess_matrix = _zone_move_aggregates(instance)

    iterations = 0
    for _ in range(max_iterations):
        delays = delays_to_targets(instance, zone_to_server, contacts)
        within = delays <= bound
        excess_vec = np.maximum(delays - bound, 0.0)
        qos_count = int(within.sum())
        excess_total = float(excess_vec.sum())
        loads = server_loads(instance, zone_to_server, contacts)

        best = None  # (qos, excess, kind, index, server)
        if consider_zone_moves:
            move = _best_zone_move(
                instance,
                zone_to_server,
                contacts,
                loads,
                within,
                excess_vec,
                qos_count,
                excess_total,
                within_matrix,
                excess_matrix,
            )
            if move is not None:
                best = (move[0], move[1], "zone", move[2], move[3])
        if consider_contact_moves:
            move = _best_contact_move(
                instance,
                zone_to_server,
                contacts,
                loads,
                delays,
                excess_vec,
                qos_count,
                excess_total,
                incumbent=None if best is None else (best[0], best[1]),
            )
            if move is not None:
                best = (move[0], move[1], "contact", move[2], move[3])

        if best is None:
            break
        _, _, kind, index, server = best
        if kind == "zone":
            zone_to_server[index] = server
            contacts[zones_of == index] = server
        else:
            contacts[index] = server
        iterations += 1
    return iterations


def _repair_contacts_sweep(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    max_sweeps: int = 50,
    delays: Optional[np.ndarray] = None,
) -> int:
    """Batched contact repair: apply a whole sweep of improving moves at once.

    ``delays`` optionally seeds (and receives, mutated in place) the
    maintained per-client delay vector — see :func:`warm_start_refine` for
    the bit-identity contract.

    Each sweep picks, for every over-bound client, its best *strictly
    improving* contact server that had room at the start of the sweep, then
    resolves capacity contention per destination server with a prefix sum in
    client order (later claimants that would overflow wait for the next
    sweep, when the loads they freed elsewhere are also visible).  Sweeps
    repeat until one applies nothing.  Unlike the best-first
    :func:`refine_assignment` this does not pick the globally best move per
    round — it trades that for O(sweeps) vectorised scans instead of
    O(moves), which is what makes the per-epoch repair cost of a
    longitudinal simulation proportional to the churn, not to the
    population.  The objective still never worsens: every
    applied move strictly reduces its client's delay.
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


def _repair_zones_sweep(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contacts: np.ndarray,
    max_iterations: int,
    max_sweeps: int = 20,
    delays: Optional[np.ndarray] = None,
) -> int:
    """Batched zone-move repair: one ``(over-bound zones, servers)`` scan per sweep.

    ``delays`` optionally seeds (and receives, mutated in place) the
    maintained per-client delay vector — see :func:`warm_start_refine` for
    the bit-identity contract.

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
    # Compact delay sources: every zone's node-space aggregates, built on
    # the first sweep that scores a zone and sliced by row from then on.
    node_space: Optional[Tuple[np.ndarray, np.ndarray]] = None

    if delays is None:
        delays = delays_to_targets(instance, zone_to_server, contacts)
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
        if instance.has_dense_delays:
            within_matrix, excess_matrix = _zone_move_aggregates(
                instance, members, member_rows, zones.size
            )
        else:
            if node_space is None:
                node_space = _zone_move_aggregates(instance)
            within_matrix, excess_matrix = node_space[0][zones], node_space[1][zones]

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
    The move order is greedy per zone / client rather than the globally
    best-first order of :func:`refine_assignment`.

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
    """
    zone_to_server = assignment.zone_to_server.copy()
    contacts = assignment.contact_of_client.copy()
    delays = delays_to_targets(instance, zone_to_server, contacts)
    if instance.num_clients:
        initial_pqos = int(np.count_nonzero(delays <= instance.delay_bound)) / instance.num_clients
    else:
        initial_pqos = 1.0

    with Timer() as timer:
        iterations = 0
        if consider_zone_moves:
            iterations += _repair_zones_sweep(
                instance, zone_to_server, contacts, max_iterations, delays=delays
            )
        if iterations < max_iterations:
            iterations += _repair_contacts_sweep(
                instance, zone_to_server, contacts, max_iterations - iterations, delays=delays
            )

    final_loads = server_loads(instance, zone_to_server, contacts)
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


def refine_assignment(
    instance: CAPInstance,
    assignment: Assignment,
    max_iterations: int = 200,
    consider_zone_moves: bool = True,
    consider_contact_moves: bool = True,
) -> LocalSearchResult:
    """Hill-climb an assignment with zone-move and contact-move neighbourhoods.

    The search is greedy (best improving move each round), respects server
    capacities at every step and never worsens the objective; the returned
    assignment is therefore at least as good as the input.

    Parameters
    ----------
    instance:
        The problem instance (true delays).
    assignment:
        A complete, capacity-feasible starting solution.
    max_iterations:
        Upper bound on the number of applied moves.
    consider_zone_moves / consider_contact_moves:
        Restrict the neighbourhood (used by the ablation study to attribute
        improvements to one move type).

    Each sweep is evaluated with NumPy delta-cost matrices.  Objective deltas
    are accumulated in a different floating-point order than the nested-scan
    oracle's full recomputation, so the two can in principle break an exact
    tie differently; both always return a move-wise local optimum of the same
    neighbourhood.
    """
    zone_to_server = assignment.zone_to_server.copy()
    contacts = assignment.contact_of_client.copy()
    initial_pqos = assignment.pqos(instance)

    with Timer() as timer:
        iterations = _refine_vectorized(
            instance,
            zone_to_server,
            contacts,
            max_iterations,
            consider_zone_moves,
            consider_contact_moves,
        )

    refined = Assignment(
        zone_to_server=zone_to_server,
        contact_of_client=contacts,
        algorithm=f"{assignment.algorithm}+ls",
        capacity_exceeded=assignment.capacity_exceeded,
        runtime_seconds=assignment.runtime_seconds + timer.elapsed,
        metadata={**assignment.metadata, "local_search_iterations": iterations},
    )
    return LocalSearchResult(
        assignment=refined,
        iterations=iterations,
        initial_pqos=initial_pqos,
        final_pqos=refined.pqos(instance),
        runtime_seconds=timer.elapsed,
    )
