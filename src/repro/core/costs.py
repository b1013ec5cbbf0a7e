"""Cost metrics of the two assignment phases (Equations 3 and 8 of the paper).

* **Initial assignment cost** ``C^I_ij = |{c in z_j : d(c, s_i) > D}|`` — the
  number of clients of zone ``j`` that would miss the delay bound if the zone
  were hosted by server ``i``.
* **Refined assignment cost**
  ``C^R_ij = max(0, d(c_j, s_i) + d(s_i, target(c_j)) - D)`` — how far past the
  delay bound client ``j`` would land if it used server ``i`` as its contact
  server.

Both matrices are computed with vectorised NumPy: the client×server delay
matrix is thresholded / combined in one shot and aggregated per zone with a
sort + ``np.add.reduceat`` segment reduction, so even the largest
configuration in the paper (30 servers × 160 zones × 2000 clients) is handled
in a few milliseconds.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import CAPInstance
from repro.utils.chunks import row_chunks

__all__ = [
    "initial_cost_matrix",
    "refined_cost_matrix",
    "refined_cost_rows",
    "refined_cost_candidates",
    "delays_to_targets",
]


def initial_cost_matrix(instance: CAPInstance) -> np.ndarray:
    """Initial-assignment cost matrix ``C^I`` of shape (num_servers, num_zones).

    ``C^I[i, j]`` is the number of clients in zone ``j`` whose round-trip delay
    to server ``i`` exceeds the delay bound ``D``.

    The matrix is built zone-major and returned as its transposed *view*:
    the result is Fortran-ordered, and its ``.T`` is the C-contiguous
    ``(zones x servers)`` table the placement engine reads row by row, so
    neither side copies it.  The result is a fresh array that the caller
    owns and may overwrite: GreZ negates it in place into its desirability.

    Dense delays: the per-zone aggregation sorts the client rows by zone and
    reduces each contiguous segment with ``np.add.reduceat`` — the
    ``np.add.at`` scatter-add it replaces is the notoriously slow ufunc path,
    and this matrix is rebuilt on every from-scratch solve of a re-execution
    epoch.  Compact delays count in node space
    (:meth:`~repro.topology.delay_backends.CompactDelayMatrix.zone_over_bound_counts`):
    a float32 (zones x nodes) @ (nodes x servers) product of integer counts
    and 0/1 indicators, exact because every partial sum is an integer no
    larger than the zone population, below ``2**24`` (float64 above that).
    """
    if not instance.has_dense_delays:
        # Compact delay sources aggregate in node space: a (zones × nodes)
        # count matrix against the node→server over-bound indicator gives the
        # same integer counts without ever touching a (k, m) matrix.
        per_zone = instance.client_server_delays.zone_over_bound_counts(
            instance.delay_bound, instance.client_zones, instance.num_zones
        )
        return per_zone.T
    per_zone = np.zeros((instance.num_zones, instance.num_servers), dtype=np.float64)
    if instance.num_clients:
        over_bound = (instance.client_server_delays > instance.delay_bound).astype(np.float64)
        by_zone = np.argsort(instance.client_zones, kind="stable")
        counts = np.bincount(instance.client_zones, minlength=instance.num_zones)
        nonempty = counts > 0
        segment_starts = np.concatenate(([0], np.cumsum(counts)))[:-1][nonempty]
        per_zone[nonempty] = np.add.reduceat(over_bound[by_zone], segment_starts, axis=0)
    return per_zone.T


def _checked_indices(instance: CAPInstance, zone_to_server, clients=None):
    """``(zone_to_server, clients)`` as int64 arrays, rejecting bad shapes and ids.

    ``clients`` is optional (``None`` passes through); when given it must be
    a 1-D array of client indices.
    """
    zone_to_server = np.asarray(zone_to_server, dtype=np.int64)
    if zone_to_server.shape != (instance.num_zones,):
        raise ValueError(
            f"zone_to_server must have shape ({instance.num_zones},), got {zone_to_server.shape}"
        )
    if zone_to_server.size and (
        zone_to_server.min() < 0 or zone_to_server.max() >= instance.num_servers
    ):
        raise ValueError("zone_to_server contains invalid server indices")
    if clients is None:
        return zone_to_server, None
    clients = np.asarray(clients, dtype=np.int64)
    if clients.ndim != 1:
        raise ValueError("clients must be a 1-D index array")
    if clients.size and (clients.min() < 0 or clients.max() >= instance.num_clients):
        raise ValueError("clients contains invalid client indices")
    return zone_to_server, clients


def refined_cost_matrix(instance: CAPInstance, zone_to_server: np.ndarray) -> np.ndarray:
    """Refined-assignment cost matrix ``C^R`` of shape (num_servers, num_clients).

    ``C^R[i, j]`` measures how far client ``j``'s communication delay would be
    above the bound ``D`` if server ``i`` were chosen as its contact server,
    given the zone→server map ``zone_to_server`` from the initial phase
    (0 when within the bound).
    """
    zone_to_server, _ = _checked_indices(instance, zone_to_server)
    targets = zone_to_server[instance.client_zones]  # (k,)
    # total_delay[i, j] = d(c_j, s_i) + d(s_i, target_j).  This is the one
    # cost that is inherently (m, k)-dense; compact instances materialise
    # here, which the all-pairs callers (optimal RAP, first-fit variant)
    # accept on the small worlds they run on.
    total_delay = (
        instance.dense_client_server_delays().T + instance.server_server_delays[:, targets]
    )
    return np.maximum(total_delay - instance.delay_bound, 0.0)


def refined_cost_rows(
    instance: CAPInstance, zone_to_server: np.ndarray, clients: np.ndarray
) -> np.ndarray:
    """Refined-cost rows ``C^R.T[clients]`` of shape (len(clients), num_servers).

    Equal to ``refined_cost_matrix(instance, zone_to_server)[:, clients].T``
    without materialising the dense (num_servers, num_clients) matrix first —
    GreC only ever needs the clients that miss the bound directly (the
    paper's list ``L_E``), which on large populations is a small fraction of
    the whole matrix.  Built *row-major*: the delay gather (``delay_rows``)
    already returns one contiguous row per client, so accumulating the mesh
    legs and the bound in place keeps every pass contiguous — no
    (num_servers, len(clients)) strided write.  GreC hands the transposed
    view straight to the vectorized placement engine, whose per-item gathers
    want exactly this layout.
    """
    zone_to_server, clients = _checked_indices(instance, zone_to_server, clients)
    targets = zone_to_server[instance.client_zones[clients]]  # (len(clients),)
    # total[j, i] = d(c_j, s_i) + d(s_i, target_j); same operand order as
    # refined_cost_matrix (delays first, mesh leg second), so the sums are
    # bitwise equal to its transposed columns.
    total_delay = instance.delay_rows(clients)  # fresh, writable, row-major
    # Gather the targets' mesh columns (m x len(clients)) rather than
    # transposing the whole m x m mesh: the exhaustion fall-through calls this
    # with a handful of clients, many times per solve.
    total_delay += instance.server_server_delays[:, targets].T
    total_delay -= instance.delay_bound
    return np.maximum(total_delay, 0.0, out=total_delay)


def refined_cost_candidates(
    instance: CAPInstance, zone_to_server: np.ndarray, clients: np.ndarray
):
    """Refined costs restricted to each client's candidate servers, or ``None``.

    For instances whose delay backend restricts zones to per-zone candidate
    sets (the sparse backend), returns ``(servers, costs)`` of shape
    ``(len(clients), K)``: the client zone's candidate server ids (ascending
    per row) and the refined cost ``C^R`` of forwarding through each.  The
    cost values are bitwise the corresponding entries of
    :func:`refined_cost_rows` (same gather source, same operation order);
    every *non*-candidate server carries the sentinel delay, so its refined
    cost is at least ``fill_value - delay_bound`` — callers can treat the
    candidate lists as a complete view of the servers worth forwarding
    through.  ``None`` for dense or unrestricted (coords) instances.
    """
    if instance.has_dense_delays:
        return None
    if instance.client_server_delays.zone_candidates is None:
        return None
    zone_to_server, clients = _checked_indices(instance, zone_to_server, clients)
    # A fresh (len(clients), K) gather of the true candidate delays.
    source = instance.client_server_delays
    servers, total_delay = source.candidate_rows(clients)
    # The mesh leg d(s, target) depends only on the client's zone (its
    # candidate row and its target): build it once per zone with a flat
    # gather, then add whole rows per client, one row chunk at a time.
    mesh = instance.server_server_delays
    offsets = source.sorted_candidates() * mesh.shape[1]
    offsets += zone_to_server[:, None]
    zone_leg = np.take(mesh.ravel(), offsets)
    zones = instance.client_zones[clients]
    # Same elementwise operation order as refined_cost_rows (delay first,
    # mesh leg second, then the bound), so entries stay bitwise equal.
    for rows in row_chunks(*total_delay.shape):
        total_delay[rows] += np.take(zone_leg, zones[rows], axis=0)
    total_delay -= instance.delay_bound
    return servers, np.maximum(total_delay, 0.0, out=total_delay)


def delays_to_targets(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contact_of_client: np.ndarray | None = None,
) -> np.ndarray:
    """Per-client communication delay to its target server (ms).

    With ``contact_of_client`` omitted, clients are assumed to talk to their
    target server directly (contact = target).  Otherwise the delay is
    ``d(c, contact) + d(contact, target)`` per Definition 2.1.
    """
    zone_to_server = np.asarray(zone_to_server, dtype=np.int64)
    targets = zone_to_server[instance.client_zones]
    clients = np.arange(instance.num_clients)
    if contact_of_client is None:
        return instance.delay_pairs(clients, targets)
    contacts = np.asarray(contact_of_client, dtype=np.int64)
    if contacts.shape != (instance.num_clients,):
        raise ValueError("contact_of_client must have one entry per client")
    return instance.delay_pairs(clients, contacts) + instance.server_server_delays[
        contacts, targets
    ]
