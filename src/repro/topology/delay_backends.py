"""Delay backends: the dense delay matrix and its sparse, candidate-restricted form.

Every scenario used to materialise a dense ``num_clients × num_servers``
delay matrix, so memory grew O(k·m) and capped worlds at a few thousand
clients.  The key structural fact this module exploits is that clients live
*at topology nodes*: ``delay(c, s) = rtt[node(c), node(s)]``, so a
``(num_nodes, num_servers)`` node→server table plus the ``(num_clients,)``
node index of every client determines every client→server delay exactly —
O(nodes·m + clients) state instead of O(k·m).

Two backends exist:

``"dense"``
    The executable specification: :func:`~repro.world.scenario.build_scenario`
    gathers the real ``(k, m)`` ndarray from the :class:`DelayModel`.
``"sparse"``
    Exact per-node delays, but each zone is restricted to its top-K nearby
    candidate servers (selected from the topology around the zone's anchor
    node).  Delays to non-candidate servers report a large finite sentinel
    (:data:`SPARSE_FILL_DELAY_MS`), so the restriction expresses itself
    purely through delay values and every solver works unchanged — the
    per-instance candidate state is O(zones·K).

Sparse scenarios carry a :class:`CompactDelayMatrix` in place of the dense
ndarray: a virtual ``(k, m)`` matrix exposing vectorised row / pair gathers
and zone-aggregated fast paths, which is all the solvers' hot loops need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.utils.chunks import CHUNK_CELLS, row_chunks

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.topology.delays import DelayModel

__all__ = [
    "DELAY_BACKENDS",
    "DEFAULT_DELAY_BACKEND",
    "DEFAULT_SPARSE_TOP_K",
    "SPARSE_FILL_DELAY_MS",
    "CompactDelayMatrix",
    "node_server_table",
    "sparse_delay_matrix",
]

#: Names accepted by configs and the ``--delay-backend`` CLI flag.
DELAY_BACKENDS = ("dense", "sparse")
#: The executable-spec default.
DEFAULT_DELAY_BACKEND = "dense"
#: Default per-zone candidate-set size of the sparse backend.
DEFAULT_SPARSE_TOP_K = 8
#: Finite sentinel delay (ms) reported for non-candidate servers — far above
#: any realistic delay bound, so such pairings always count as QoS violations,
#: yet finite so every arithmetic path stays well-defined.
SPARSE_FILL_DELAY_MS = 1.0e9
#: ``(zones × nodes)`` cells per chunk of the cost-table build
#: (:meth:`CompactDelayMatrix.over_bound_table`): 1 MiB of int64 counts.  Wider
#: than :data:`~repro.utils.chunks.CHUNK_CELLS` because the chunk is a matmul
#: operand, and BLAS loses throughput on short ones.
_COUNT_CHUNK_CELLS = 2 * CHUNK_CELLS
#: The int64 index arrays of a :class:`CompactDelayMatrix`.
_INDEX_FIELDS = ("server_nodes", "client_nodes", "client_zones", "zone_candidates", "zone_anchors")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _take_cells(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[rows, cols]`` (broadcast) as one ``np.take`` on the flat buffer.

    The flat offsets ``rows * row_stride + cols * col_stride`` address the
    table in its own memory order, so a C- or Fortran-contiguous table
    (``node_server`` is sliced column-wise out of the RTT matrix and comes
    out Fortran-ordered) is gathered without a copy.  Indices must be in
    range: unlike the 2-D index, a flat offset does not check each axis.
    The offsets are built in place in one array of the broadcast shape; the
    only other temporary has the shape of ``rows``.
    """
    if not (table.flags.c_contiguous or table.flags.f_contiguous):
        table = np.ascontiguousarray(table)
    row_stride, col_stride = (stride // table.itemsize for stride in table.strides)
    offsets = np.empty(np.broadcast_shapes(np.shape(rows), np.shape(cols)), dtype=np.int64)
    np.multiply(cols, col_stride, out=offsets)
    offsets += np.multiply(rows, row_stride)
    return np.take(table.ravel(order="K"), offsets)


def _candidates_from_anchors(
    node_server: np.ndarray, anchor_nodes: np.ndarray, top_k: int
) -> np.ndarray:
    """Per-zone K candidate servers as seen from the zone anchor nodes.

    Half the budget goes to the nearest servers; the other half is strided
    evenly across the remaining delay ranks, with the stride comb rotated by
    the zone index.  Pure top-K-nearest sets overlap heavily between zones
    anchored in the same region (and zones see near-identical delay rank
    orders), so under tight capacity the candidate *union* stays tiny and the
    solvers are forced onto non-candidate (sentinel-delay) servers, collapsing
    pQoS.  The rotated strided tails keep per-zone state at O(zones·K) while
    the union of real-delay fallbacks covers the whole fleet.

    Zones that share an anchor node share its delay row, and a stable sort
    orders identical rows identically, so each distinct anchor's row is
    sorted once and every zone reads its picks from its anchor's order.
    """
    num_servers = node_server.shape[1]
    top_k = min(int(top_k), num_servers)
    anchors, zone_anchor = np.unique(anchor_nodes, return_inverse=True)
    order = np.argsort(node_server[anchors], axis=1, kind="stable")
    near = (top_k + 1) // 2
    if near >= top_k or top_k == num_servers:
        picks = order[zone_anchor, :top_k]
    else:
        far = top_k - near
        step = (num_servers - near) // far  # >= 1 because far <= num_servers - near
        num_zones = zone_anchor.shape[0]
        # (zones, far) rank comb: stride `step` keeps picks distinct per zone,
        # the zone-index phase makes consecutive zones cover different ranks.
        phases = (np.arange(num_zones) % step)[:, None]
        tail_ranks = near + np.arange(far)[None, :] * step + phases
        picks = np.concatenate(
            [order[zone_anchor, :near], order[zone_anchor[:, None], tail_ranks]], axis=1
        )
    return np.ascontiguousarray(picks, dtype=np.int64)


def zone_anchor_nodes(
    client_nodes: np.ndarray, client_zones: np.ndarray, num_zones: int, num_nodes: int
) -> np.ndarray:
    """Modal physical node of each zone's population (the zone "anchor").

    Ties break to the lowest node index; zones with no clients anchor at the
    globally most common client node (or node 0 for an empty population), so
    candidate sets stay well-defined for every zone.
    """
    client_nodes = np.asarray(client_nodes, dtype=np.int64)
    client_zones = np.asarray(client_zones, dtype=np.int64)
    if not client_nodes.size:
        return np.zeros(num_zones, dtype=np.int64)
    counts = np.bincount(
        client_zones * num_nodes + client_nodes, minlength=num_zones * num_nodes
    ).reshape(num_zones, num_nodes)
    anchors = counts.argmax(axis=1).astype(np.int64)
    empty = counts.sum(axis=1) == 0
    if empty.any():
        anchors[empty] = int(np.bincount(client_nodes, minlength=num_nodes).argmax())
    return anchors


@dataclass
class _CostTable:
    """A :class:`CompactDelayMatrix`'s over-bound counts for one delay bound.

    ``counts[z, j]`` is the number of zone ``z``'s clients whose delay to
    ``sorted_candidates()[z, j]`` exceeds ``bound``.  ``read`` records
    whether anything read the table on the matrix that holds it: only a
    read table is worth carrying through the next client delta.
    """

    bound: float
    counts: np.ndarray
    read: bool = False


@dataclass(frozen=True)
class CompactDelayMatrix:
    """A virtual ``(num_clients, num_servers)`` delay matrix in O(n·m + k) state.

    Entries are ``node_server[client_nodes[c], s]`` for the servers in the
    client zone's candidate set and :attr:`fill_value` for every other
    server.

    Attributes
    ----------
    server_nodes:
        ``(m,)`` topology node of each server.
    node_server:
        ``(num_nodes, m)`` node→server delay table (ms, read-only).
    client_nodes:
        ``(k,)`` topology node of each client.
    client_zones / zone_candidates / zone_anchors:
        Zone of each client, ``(num_zones, K)`` candidate server ids per
        zone, and the zone anchor nodes the candidates were selected from.
    fill_value:
        The sentinel delay reported for non-candidate servers.

    The matrix also owns GreZ's sparse cost table (:meth:`over_bound_table`),
    built on first read and carried from one client population to the next
    by :meth:`with_clients` when it is given the churn map.
    """

    server_nodes: np.ndarray
    node_server: np.ndarray
    client_nodes: np.ndarray
    client_zones: np.ndarray
    zone_candidates: np.ndarray
    zone_anchors: np.ndarray
    fill_value: float = SPARSE_FILL_DELAY_MS
    _allowed_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _sorted_candidates_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # Not an init field, so ``dataclasses.replace`` (with_clients,
    # with_node_server) starts the new matrix without a table: only the
    # churn-map path of with_clients moves one across.
    _cost_table: Optional[_CostTable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _INDEX_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if self.node_server.ndim != 2:
            raise ValueError(f"node_server must be 2-D, got shape {self.node_server.shape}")
        if self.server_nodes.shape != (self.node_server.shape[1],):
            raise ValueError("server_nodes must match node_server's column count")
        # Rows are gathered with numpy indexing, which would wrap a negative
        # node onto the table's last rows instead of failing.
        num_nodes = self.node_server.shape[0]
        nodes = self.client_nodes
        if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise ValueError(f"client_nodes must lie in [0, {num_nodes})")
        if self.client_zones.shape != self.client_nodes.shape:
            raise ValueError("client_zones must match client_nodes in shape")
        if self.zone_candidates.ndim != 2:
            raise ValueError("zone_candidates must be (num_zones, K)")
        if self.zone_anchors.shape != (self.zone_candidates.shape[0],):
            raise ValueError("zone_anchors must have one entry per zone")

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        """Virtual (num_clients, num_servers) shape."""
        return (int(self.client_nodes.shape[0]), int(self.node_server.shape[1]))

    @property
    def num_clients(self) -> int:
        """Number of clients (virtual rows)."""
        return self.shape[0]

    @property
    def num_servers(self) -> int:
        """Number of servers (virtual columns)."""
        return self.shape[1]

    @property
    def num_zones(self) -> int:
        """Zone count of the candidate restriction."""
        return int(self.zone_candidates.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by this matrix's per-instance arrays.

        ``node_server`` is shared, backend-level state (one table per fleet
        snapshot, not per scenario), so it is counted once here but does not
        grow with the client count — the per-client cost is the index arrays.
        """
        return self.node_server.nbytes + sum(getattr(self, name).nbytes for name in _INDEX_FIELDS)

    def candidate_mask(self) -> np.ndarray:
        """The ``(num_zones, m)`` candidate mask.

        Read-only and cached; the per-zone candidate sets as a boolean
        matrix.  The solvers use it to keep *fallback* placements
        delay-aware: a zone that cannot be placed within capacity should
        still land on a server its clients can actually reach, not on a
        sentinel-delay one.
        """
        cached = self._allowed_cache
        if cached is None:
            num_zones, top_k = self.zone_candidates.shape
            cached = np.zeros((num_zones, self.num_servers), dtype=bool)
            rows = np.repeat(np.arange(num_zones), top_k)
            cached[rows, self.zone_candidates.ravel()] = True
            cached = _read_only(cached)
            object.__setattr__(self, "_allowed_cache", cached)
        return cached

    def sorted_candidates(self) -> np.ndarray:
        """The ``(num_zones, K)`` candidate sets, server ids ascending.

        Candidate rows are sets — their stored order (near-first, then the
        strided tail) carries no meaning — so a once-per-instance row sort
        gives every consumer index-sorted lists without a per-query sort:
        :meth:`candidate_rows` gathers from it, and GreZ hands it to the
        placement engine as each zone's candidate table.  Read-only and
        cached.
        """
        cached = self._sorted_candidates_cache
        if cached is None:
            cached = _read_only(np.sort(self.zone_candidates, axis=1))
            object.__setattr__(self, "_sorted_candidates_cache", cached)
        return cached

    def candidate_rows(self, clients: np.ndarray) -> np.ndarray:
        """Per-client exact delays to the client zone's candidate servers.

        ``clients`` is a 1-D index array.  Returns a fresh
        ``(len(clients), K)`` array: row ``i`` holds the true (non-sentinel)
        delays from ``clients[i]`` to ``sorted_candidates()[z]``, where ``z``
        is the client's zone, in that row's ascending server order.  The
        values are bitwise the entries :meth:`rows` reports for those
        servers.  The server ids are not returned: a caller reads them from
        :meth:`sorted_candidates` through the clients' zones.

        The delays are gathered in row chunks
        (:func:`~repro.utils.chunks.row_chunks`) straight into the result:
        each chunk takes its clients' candidate rows by zone, then single
        delays by flat offset (:func:`_take_cells`) — ``np.take`` calls,
        which numpy runs far faster than the equivalent 2-D fancy index —
        so neither the server ids nor the flat offsets ever exist for all
        rows at once.
        """
        clients = np.asarray(clients, dtype=np.int64)
        candidates = self.sorted_candidates()
        delays = np.empty((clients.size, candidates.shape[1]), dtype=self.node_server.dtype)
        for rows in row_chunks(*delays.shape):
            chunk = clients[rows]
            servers = np.take(candidates, self.client_zones[chunk], axis=0)
            delays[rows] = _take_cells(self.node_server, self.client_nodes[chunk][:, None], servers)
        return delays

    # ------------------------------------------------------------------ #
    # Gathers — the dense fancy-indexing idioms the solvers rely on.
    # ------------------------------------------------------------------ #
    def rows(self, clients: Union[int, np.ndarray]) -> np.ndarray:
        """Delay rows, mirroring ``dense[clients]`` (fresh, writable array)."""
        clients = np.asarray(clients, dtype=np.int64)
        out = self.node_server[self.client_nodes[clients]]
        if out.base is not None or not out.flags.writeable:
            out = out.copy()
        # In-place masked fill: one pass over the gathered rows instead
        # of np.where's extra full-size output allocation.
        np.copyto(
            out,
            self.fill_value,
            where=np.logical_not(self.candidate_mask()[self.client_zones[clients]]),
        )
        return out

    def pairs(self, clients: Union[int, np.ndarray], servers: Union[int, np.ndarray]) -> np.ndarray:
        """Elementwise delays, mirroring ``dense[clients, servers]`` broadcasting.

        Server ids must lie in ``[0, m)``.  The gathers run on flat offsets
        (:func:`_take_cells`); the values are the ones the 2-D index would
        read.
        """
        clients = np.asarray(clients, dtype=np.int64)
        return self._pairs(self.client_nodes[clients], self.client_zones[clients], servers)

    def delays_to(self, servers: np.ndarray) -> np.ndarray:
        """Each client's delay to its own server: ``pairs(arange(k), servers)``.

        ``servers`` has one id in ``[0, m)`` per client.  The gathers read
        the client index arrays as they are, with no ``(k,)`` copies of them.
        """
        servers = np.asarray(servers, dtype=np.int64)
        if servers.shape != (self.num_clients,):
            raise ValueError(f"servers must have shape ({self.num_clients},), got {servers.shape}")
        return self._pairs(self.client_nodes, self.client_zones, servers)

    def _pairs(self, nodes: np.ndarray, zones: np.ndarray, servers) -> np.ndarray:
        """Delays from clients at ``nodes`` in ``zones`` to ``servers`` (broadcast)."""
        servers = np.asarray(servers, dtype=np.int64)
        if servers.size and (servers.min() < 0 or servers.max() >= self.num_servers):
            raise IndexError(f"server index out of range for {self.num_servers} servers")
        out = _take_cells(self.node_server, nodes, servers)
        allowed = _take_cells(self.candidate_mask(), zones, servers)
        return np.where(allowed, out, self.fill_value)

    def toarray(self) -> np.ndarray:
        """Materialise the full dense ``(k, m)`` matrix (small worlds only)."""
        return self.rows(np.arange(self.num_clients))

    # ------------------------------------------------------------------ #
    # Zone-aggregated fast paths — O(zones·nodes + nodes·m) instead of O(k·m).
    # ------------------------------------------------------------------ #
    def _zone_node_counts(self, client_zones: np.ndarray, num_zones: int) -> np.ndarray:
        """``(num_zones, num_nodes)`` float64 count of clients per (zone, node) cell."""
        num_nodes = self.node_server.shape[0]
        if client_zones.size == 0:
            return np.zeros((num_zones, num_nodes))
        flat = np.bincount(
            np.asarray(client_zones, dtype=np.int64) * num_nodes + self.client_nodes,
            minlength=num_zones * num_nodes,
        )
        return flat.reshape(num_zones, num_nodes).astype(np.float64)

    def over_bound_table(self, bound: float) -> np.ndarray:
        """GreZ's sparse cost table: ``(num_zones, K)`` int32 over-bound counts.

        Entry ``[z, j]`` counts zone ``z``'s clients whose delay to its
        candidate ``sorted_candidates()[z, j]`` exceeds ``bound``: the
        paper's initial cost ``C^I`` on the only cells that carry
        information, since every other server reports the sentinel delay to
        the whole zone and so counts the zone population.

        Built on first read for a bound (:meth:`_count_over_bound`) and
        cached; a churn delta moves it onto the next matrix and updates it in
        O(churn × K) (:meth:`with_clients`).  Read-only, and valid until this
        matrix's clients advance.
        """
        table = self._cost_table
        if table is None or table.bound != bound:
            table = _CostTable(bound, self._count_over_bound(bound))
            object.__setattr__(self, "_cost_table", table)
        table.read = True
        return _read_only(table.counts.view())

    def zone_over_bound_counts(self, bound: float) -> np.ndarray:
        """Per-zone count of clients whose delay to each server exceeds ``bound``.

        The full-width form of :meth:`over_bound_table`: a fresh C-contiguous
        float64 ``(num_zones, m)`` array holding each zone's population,
        with the table's counts written over its candidate cells.  Equal to
        scattering ``(delays > bound)`` per client into its zone.
        """
        per_zone = np.empty((self.num_zones, self.num_servers))
        per_zone[...] = np.bincount(self.client_zones, minlength=self.num_zones)[:, None]
        np.put_along_axis(per_zone, self.sorted_candidates(), self.over_bound_table(bound), axis=1)
        return per_zone

    def _count_over_bound(self, bound: float) -> np.ndarray:
        """A fresh :meth:`over_bound_table` from every client.

        A (zones × nodes) @ (nodes × servers) product of client counts and
        0/1 over-bound indicators, whose candidate cells are kept.  Every
        partial sum is an integer no larger than a zone's population: below
        ``2**24`` clients the float32 product is exact in any summation
        order, and it runs at twice the float64 rate; larger populations
        multiply in float64.  The counts and their product are built per
        chunk of zone rows, so no ``(zones × nodes)`` or ``(zones ×
        servers)`` array is ever made.
        """
        dtype = np.float32 if self.num_clients < 2**24 else np.float64
        num_nodes = self.node_server.shape[0]
        over_bound = (self.node_server > bound).astype(dtype)
        candidates = self.sorted_candidates()
        table = np.empty(candidates.shape, dtype=np.int32)
        # Sorted (zone, node) cells: each chunk's clients are one slice.
        cells = np.sort(self.client_zones * num_nodes + self.client_nodes)
        for rows in row_chunks(self.num_zones, num_nodes, _COUNT_CHUNK_CELLS):
            first = rows.start * num_nodes
            start, stop = np.searchsorted(cells, (first, rows.stop * num_nodes))
            counts = np.bincount(
                cells[start:stop] - first, minlength=(rows.stop - rows.start) * num_nodes
            ).reshape(-1, num_nodes).astype(dtype)
            table[rows] = np.take_along_axis(counts @ over_bound, candidates[rows], axis=1)
        return table

    def _over_bound_cells(self, over_bound: np.ndarray, clients: np.ndarray) -> np.ndarray:
        """Flat cost-table cells ``zone * K + j`` where a client is over the bound.

        ``over_bound`` is the ``node_server > bound`` indicator.  Each
        client's K indicators are gathered by flat offset (as in
        :func:`_take_cells`) one row chunk at a time, so the temporaries
        stay at :data:`~repro.utils.chunks.CHUNK_CELLS` cells; only the set
        ones are kept.  A cell appears once per client it counts.
        """
        candidates = self.sorted_candidates()
        top_k = candidates.shape[1]
        row_stride, col_stride = (stride // over_bound.itemsize for stride in over_bound.strides)
        indicators = over_bound.ravel(order="K")
        cells = []
        for rows in row_chunks(clients.size, top_k):
            chunk = clients[rows]
            zones = self.client_zones[chunk]
            offsets = np.take(candidates, zones, axis=0)
            offsets *= col_stride
            offsets += (self.client_nodes[chunk] * row_stride)[:, None]
            hits = np.flatnonzero(np.take(indicators, offsets))
            # Position i * K + j of the chunk is table cell zone_i * K + j.
            row = hits // top_k
            hits += (zones[row] - row) * top_k
            cells.append(hits)
        return np.concatenate(cells) if cells else np.zeros(0, dtype=np.int64)

    def zone_direct_aggregates(
        self,
        bound: float,
        client_zones: np.ndarray,
        num_zones: int,
        server_self_delays: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-zone within-bound counts and excess-delay sums for zone moves.

        For every (zone, server) pair, aggregates the *direct* delays
        ``delay(c, s) + server_self_delays[s]`` of the zone's clients:
        the count of clients within ``bound`` and the summed excess
        ``max(direct - bound, 0)`` — the two matrices
        :func:`repro.core.local_search` needs to score wholesale zone moves
        without a dense ``(k, m)`` matrix.
        """
        counts = self._zone_node_counts(client_zones, num_zones)
        direct = self.node_server + np.asarray(server_self_delays, dtype=np.float64)[None, :]
        within = counts @ (direct <= bound).astype(np.float64)
        excess = counts @ np.maximum(direct - bound, 0.0)
        allowed = self.candidate_mask()
        zone_pop = counts.sum(axis=1)
        fill_direct = self.fill_value + np.asarray(server_self_delays, dtype=np.float64)
        fill_excess = np.maximum(fill_direct - bound, 0.0)
        within = np.where(allowed, within, 0.0)
        excess = np.where(allowed, excess, zone_pop[:, None] * fill_excess[None, :])
        return within, excess

    def zone_delay_sums(self, client_zones: np.ndarray, num_zones: int) -> np.ndarray:
        """Per-zone sum of client delays to each server (``(num_zones, m)``)."""
        counts = self._zone_node_counts(client_zones, num_zones)
        sums = counts @ self.node_server
        zone_pop = counts.sum(axis=1)
        return np.where(self.candidate_mask(), sums, zone_pop[:, None] * self.fill_value)

    # ------------------------------------------------------------------ #
    # Scenario-delta transformations.
    # ------------------------------------------------------------------ #
    def with_clients(
        self,
        client_nodes: np.ndarray,
        client_zones: np.ndarray,
        old_to_new: Optional[np.ndarray] = None,
        changed: Optional[np.ndarray] = None,
    ) -> "CompactDelayMatrix":
        """New matrix for a different client population (O(k), no regather).

        The node→server table and the candidate sets are shared by reference;
        only the per-client index arrays change.  Candidate sets are pinned
        at build time (they depend on zone anchors, not individual clients),
        which keeps churn epochs O(churn) and assignments stable.

        ``old_to_new`` maps each of this matrix's clients to its index in the
        new population (``-1``: left), one-to-one as churn produces it, and
        ``changed`` comes with it: the old indices of every survivor whose
        zone or node differs in the new population (a superset is fine;
        churn passes its zone movers).  Given them, a cost table that was
        read on this matrix (:meth:`over_bound_table`) moves to the new
        matrix, not copied, and is updated in O(churn × K): the leavers and
        the changed survivors are subtracted, and those survivors' new cells
        and the joiners (the new clients no survivor maps to) are added.
        The counts are integers, so the result equals a fresh build
        whatever order the additions run in.  Without both ``old_to_new``
        and ``changed``, or when nothing read the table here, the new
        matrix starts without one.
        """
        matrix = replace(self, client_nodes=client_nodes, client_zones=client_zones)
        table = self._cost_table
        if old_to_new is None or changed is None or table is None or not table.read:
            return matrix
        old_to_new = np.asarray(old_to_new, dtype=np.int64)
        if old_to_new.shape != (self.num_clients,):
            raise ValueError(f"old_to_new must have shape ({self.num_clients},)")
        changed = np.asarray(changed, dtype=np.int64)
        if changed.size and (changed.min() < 0 or changed.max() >= self.num_clients):
            raise ValueError(f"changed must lie in [0, {self.num_clients})")
        # Survivors that kept their zone and node: a mask, so a changed
        # client listed twice, or one that also left, is still counted once.
        kept = old_to_new >= 0
        kept[changed] = False
        arrived = np.ones(matrix.num_clients, dtype=bool)
        arrived[old_to_new[kept]] = False
        object.__setattr__(self, "_cost_table", None)
        over_bound = self.node_server > table.bound
        flat = table.counts.reshape(-1)
        gone_cells = self._over_bound_cells(over_bound, np.flatnonzero(~kept))
        flat -= np.bincount(gone_cells, minlength=flat.size)
        arrived_cells = matrix._over_bound_cells(over_bound, np.flatnonzero(arrived))
        flat += np.bincount(arrived_cells, minlength=flat.size)
        object.__setattr__(matrix, "_cost_table", _CostTable(table.bound, table.counts))
        return matrix

    def with_servers(
        self, server_nodes: np.ndarray, node_server: np.ndarray
    ) -> "CompactDelayMatrix":
        """New matrix for a different fleet and its node→server table.

        ``node_server`` is the new fleet's table (:func:`node_server_table`),
        O(nodes·m) — independent of the client count.  Candidate sets are
        re-selected from the stored zone anchors against the new fleet.
        """
        candidates = _candidates_from_anchors(
            node_server, self.zone_anchors, self.zone_candidates.shape[1]
        )
        # Re-cover guard: a server churn batch may have removed *every*
        # server a zone's old candidate set pointed at.  Re-selection from
        # the anchors must leave each zone at least one real-delay
        # (non-sentinel) candidate in the surviving fleet — otherwise the
        # 1e9 ms sentinel would silently win every assignment for that
        # zone.  This is structural (re-selection picks from the new
        # fleet), so a violation means the rebuild itself is broken.
        if candidates.size:
            if candidates.min() < 0 or candidates.max() >= node_server.shape[1]:
                raise ValueError(
                    "candidate re-cover produced out-of-range server ids; "
                    "a zone would see only sentinel delays"
                )
            anchor_delays = node_server[self.zone_anchors[:, None], candidates]
            if not (anchor_delays < self.fill_value).any(axis=1).all():
                raise ValueError(
                    "candidate re-cover left a zone with sentinel-only "
                    "candidates after server churn"
                )
        return CompactDelayMatrix(
            server_nodes=server_nodes,
            node_server=node_server,
            client_nodes=self.client_nodes,
            client_zones=self.client_zones,
            zone_candidates=candidates,
            zone_anchors=self.zone_anchors,
            fill_value=self.fill_value,
        )

    def with_node_server(self, node_server: np.ndarray) -> "CompactDelayMatrix":
        """New matrix with a substituted node→server table (overlay hook).

        Same fleet, clients and candidate sets — only the delay values
        change.  Scenario link-degradation overlays use this to scale the
        affected nodes' rows without touching the delay model or the
        candidate geometry; the candidate caches are carried since the
        candidate sets are unchanged, but not the cost table, whose counts
        the new delays change.
        """
        node_server = np.asarray(node_server, dtype=np.float64)
        if node_server.shape != self.node_server.shape:
            raise ValueError(
                f"node_server must keep shape {self.node_server.shape}, "
                f"got {node_server.shape}"
            )
        return replace(self, node_server=_read_only(node_server))


def node_server_table(delay_model: "DelayModel", server_nodes: np.ndarray) -> np.ndarray:
    """``(num_nodes, m)`` exact node→server delay table (ms, read-only)."""
    server_nodes = delay_model._check_nodes(server_nodes, "server_nodes")
    # Advanced indexing already yields a fresh array; just seal it.
    return _read_only(delay_model.rtt[:, server_nodes])


def sparse_delay_matrix(
    delay_model: "DelayModel",
    client_nodes: np.ndarray,
    client_zones: np.ndarray,
    num_zones: int,
    server_nodes: np.ndarray,
    top_k: int = DEFAULT_SPARSE_TOP_K,
) -> CompactDelayMatrix:
    """The sparse backend's client→server delays: exact on top-K candidates per zone."""
    node_server = node_server_table(delay_model, server_nodes)
    anchors = zone_anchor_nodes(client_nodes, client_zones, num_zones, delay_model.num_nodes)
    return CompactDelayMatrix(
        server_nodes=server_nodes,
        node_server=node_server,
        client_nodes=client_nodes,
        client_zones=client_zones,
        zone_candidates=_candidates_from_anchors(node_server, anchors, top_k),
        zone_anchors=anchors,
    )
