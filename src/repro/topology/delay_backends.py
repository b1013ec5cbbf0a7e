"""Client→server delays as one compact matrix, unrestricted or candidate-restricted.

Clients live *at topology nodes*: ``delay(c, s) = rtt[node(c), node(s)]``,
so a ``(num_nodes, num_servers)`` node→server table plus the
``(num_clients,)`` node index of every client determines every
client→server delay exactly — O(nodes·m + clients) state instead of the
O(k·m) of a ``(clients × servers)`` array.  :class:`CompactDelayMatrix` is
that virtual ``(k, m)`` matrix, and the only client→server delay type the
solvers see: it exposes vectorised row / pair gathers and zone-aggregated
fast paths, which is all their hot loops need.

A matrix either lets every zone reach every server or restricts each zone to
K candidate servers; which one is a stored fact of the matrix
(:attr:`CompactDelayMatrix.top_k`), so it survives fleet changes:

``"dense"`` (unrestricted, ``top_k=None``)
    Every delay is exact and every server is every zone's candidate.  The
    matrix builds no zone anchors and no candidate sort; its cost table is
    the full ``(zones, m)`` table, built afresh for each population, and
    the zone-move sweep aggregates the scored zones' members in client
    order.  A
    :class:`~repro.core.problem.CAPInstance` built from a plain ``(k, m)``
    array wraps it as such a matrix with one node per client.
``"sparse"`` (``top_k=K``)
    Exact per-node delays, but each zone is restricted to its top-K nearby
    candidate servers (selected from the topology around the zone's anchor
    node; min(K, m) of them).  Delays to non-candidate servers report a
    large finite sentinel (:data:`SPARSE_FILL_DELAY_MS`), so the restriction
    expresses itself purely through delay values and every solver works
    unchanged — the per-instance candidate state is O(zones·K).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

import numpy as np

from repro.utils.chunks import CHUNK_CELLS, row_chunks
from repro.utils.scatter import scatter_add_2d

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.topology.delays import DelayModel

__all__ = [
    "DELAY_BACKENDS",
    "DEFAULT_DELAY_BACKEND",
    "DEFAULT_SPARSE_TOP_K",
    "SPARSE_FILL_DELAY_MS",
    "CompactDelayMatrix",
    "compact_delay_matrix",
    "node_server_table",
]

#: Names accepted by configs and the ``--delay-backend`` CLI flag.
DELAY_BACKENDS = ("dense", "sparse")
#: The default: every server is every zone's candidate.
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
#: The int64 index arrays every :class:`CompactDelayMatrix` holds.
_INDEX_FIELDS = ("server_nodes", "client_nodes", "client_zones", "zone_candidates")


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
    ``sorted_candidates()[z, j]`` exceeds ``bound``, and ``over_bound`` is
    the ``node_server > bound`` indicator the counts were taken from.
    ``read`` records whether anything read the table on the matrix that
    holds it: only a read table is worth carrying through the next client
    delta.
    """

    bound: float
    counts: np.ndarray
    over_bound: np.ndarray
    read: bool = False


@dataclass(frozen=True)
class CompactDelayMatrix:
    """A virtual ``(num_clients, num_servers)`` delay matrix in O(n·m + k) state.

    Entries are ``node_server[client_nodes[c], s]`` for the servers in the
    client zone's candidate set and :attr:`fill_value` for every other
    server.  An unrestricted matrix (``top_k=None``) has every server in
    every candidate set, so every entry is exact.

    Attributes
    ----------
    server_nodes:
        ``(m,)`` topology node of each server.
    node_server:
        ``(num_nodes, m)`` node→server delay table (ms).
    client_nodes:
        ``(k,)`` topology node of each client.
    client_zones / zone_candidates / zone_anchors:
        Zone of each client, ``(num_zones, K)`` candidate server ids per
        zone (each row ascending), and the zone anchor nodes the candidates
        were selected from.
        An unrestricted matrix's candidates are every server in id order
        (:meth:`unrestricted`) and it has no anchors (``None``).
    top_k:
        The requested candidate-set size, or ``None`` for every server.  A
        restricted matrix holds ``min(top_k, m)`` candidates per zone and
        re-selects that many when its fleet changes (:meth:`with_servers`),
        so a fleet that grows back gets its candidates back.
    fill_value:
        The sentinel delay reported for non-candidate servers.

    The matrix also owns GreZ's cost table (:meth:`over_bound_table`),
    built on first read and, on a restricted matrix, carried from one client
    population to the next by :meth:`with_clients` when it is given the
    churn map.
    """

    server_nodes: np.ndarray
    node_server: np.ndarray
    client_nodes: np.ndarray
    client_zones: np.ndarray
    zone_candidates: np.ndarray
    zone_anchors: Optional[np.ndarray]
    top_k: Optional[int]
    fill_value: float = SPARSE_FILL_DELAY_MS
    _allowed_cache: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    # Not an init field, and every derived matrix (:meth:`_derived`) starts
    # without a table: only the churn-map path of with_clients moves one
    # across.
    _cost_table: Optional[_CostTable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in _INDEX_FIELDS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if self.node_server.ndim != 2:
            raise ValueError(f"node_server must be 2-D, got shape {self.node_server.shape}")
        num_servers = self.node_server.shape[1]
        if self.server_nodes.shape != (num_servers,):
            raise ValueError("server_nodes must match node_server's column count")
        self._check_clients(self.client_nodes, self.client_zones)
        if self.zone_candidates.ndim != 2:
            raise ValueError("zone_candidates must be (num_zones, K)")
        if self.top_k is None:
            if self.zone_anchors is not None:
                raise ValueError("an unrestricted matrix has no zone anchors")
            if self.zone_candidates.shape[1] != num_servers:
                raise ValueError("an unrestricted matrix lists every server per zone")
            return
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.zone_candidates.shape[1] != min(self.top_k, num_servers):
            raise ValueError("zone_candidates must list min(top_k, num_servers) servers per zone")
        anchors = np.asarray(self.zone_anchors, dtype=np.int64)
        object.__setattr__(self, "zone_anchors", anchors)
        if anchors.shape != (self.zone_candidates.shape[0],):
            raise ValueError("zone_anchors must have one entry per zone")
        # Candidate rows are sets: the table is stored once, ascending.
        object.__setattr__(
            self, "zone_candidates", _read_only(np.sort(self.zone_candidates, axis=1))
        )

    def _check_clients(self, nodes: np.ndarray, zones: np.ndarray) -> None:
        # Rows are gathered with numpy indexing, which would wrap a negative
        # node onto the table's last rows instead of failing.
        num_nodes = self.node_server.shape[0]
        if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise ValueError(f"client_nodes must lie in [0, {num_nodes})")
        if zones.shape != nodes.shape:
            raise ValueError("client_zones must match client_nodes in shape")

    @classmethod
    def unrestricted(
        cls,
        node_server: np.ndarray,
        client_nodes: np.ndarray,
        client_zones: np.ndarray,
        num_zones: int,
        server_nodes: Optional[np.ndarray] = None,
    ) -> "CompactDelayMatrix":
        """A matrix whose every zone reaches every server (``top_k=None``).

        ``server_nodes`` defaults to ``arange(m)``: a plain ``(k, m)`` delay
        array is the node→server table of ``k`` nodes, one per client.  The
        candidate table is a read-only broadcast view of one ``arange(m)``
        row, so it costs O(m).
        """
        every_server = np.arange(node_server.shape[1])
        return cls(
            server_nodes=every_server if server_nodes is None else server_nodes,
            node_server=node_server,
            client_nodes=client_nodes,
            client_zones=client_zones,
            zone_candidates=np.broadcast_to(every_server, (num_zones, every_server.size)),
            zone_anchors=None,
            top_k=None,
        )

    # ------------------------------------------------------------------ #
    @property
    def is_unrestricted(self) -> bool:
        """True when every server is every zone's candidate (``top_k is None``)."""
        return self.top_k is None

    @property
    def shape(self) -> tuple[int, int]:
        """Virtual (num_clients, num_servers) shape."""
        return (int(self.client_nodes.shape[0]), int(self.node_server.shape[1]))

    @property
    def num_clients(self) -> int:
        """Number of clients (virtual rows)."""
        return int(self.client_nodes.shape[0])

    @property
    def num_servers(self) -> int:
        """Number of servers (virtual columns)."""
        return int(self.node_server.shape[1])

    @property
    def num_zones(self) -> int:
        """Zone count of the candidate sets."""
        return int(self.zone_candidates.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by this matrix's per-instance arrays.

        ``node_server`` is shared, backend-level state (one table per fleet
        snapshot, not per scenario), so it is counted once here but does not
        grow with the client count — the per-client cost is the index arrays.
        An unrestricted matrix's candidate table is a broadcast view of one
        row, so it counts one row.
        """
        fields = [self.node_server, self.server_nodes, self.client_nodes, self.client_zones]
        if self.is_unrestricted:
            fields.append(self.zone_candidates[0])
        else:
            fields += [self.zone_candidates, self.zone_anchors]
        return sum(array.nbytes for array in fields)

    def candidate_mask(self) -> np.ndarray:
        """The ``(num_zones, m)`` candidate mask.

        Read-only and cached; the per-zone candidate sets as a boolean
        matrix.  The solvers use it to keep *fallback* placements
        delay-aware: a zone that cannot be placed within capacity should
        still land on a server its clients can actually reach, not on a
        sentinel-delay one.  An unrestricted matrix's mask is a broadcast
        all-``True`` view.
        """
        cached = self._allowed_cache
        if cached is None and self.is_unrestricted:
            cached = np.broadcast_to(True, self.zone_candidates.shape)
            object.__setattr__(self, "_allowed_cache", cached)
        elif cached is None:
            num_zones, top_k = self.zone_candidates.shape
            cached = np.zeros((num_zones, self.num_servers), dtype=bool)
            rows = np.repeat(np.arange(num_zones), top_k)
            cached[rows, self.zone_candidates.ravel()] = True
            cached = _read_only(cached)
            object.__setattr__(self, "_allowed_cache", cached)
        return cached

    def sorted_candidates(self) -> np.ndarray:
        """The ``(num_zones, K)`` candidate sets, server ids ascending.

        Candidate rows are sets — the selection order (near-first, then the
        strided tail) carries no meaning — so a restricted matrix stores
        its table row-sorted at construction, and every consumer gets
        index-sorted lists without a per-query sort: :meth:`candidate_rows`
        gathers from it, and GreZ hands it to the placement engine as each
        zone's candidate table.  Read-only; an unrestricted matrix's table
        is already sorted.
        """
        return self.zone_candidates

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
        rows at once.  An unrestricted matrix's candidate rows are its
        :meth:`rows`.
        """
        if self.is_unrestricted:
            return self.rows(clients)
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
        if self.is_unrestricted:
            return out
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

        Server ids must lie in ``[0, m)``.  A restricted matrix gathers on
        flat offsets (:func:`_take_cells`); the values are the ones the 2-D
        index would read.
        """
        clients = np.asarray(clients, dtype=np.int64)
        if self.is_unrestricted:
            return self._pairs(self.client_nodes[clients], None, servers)
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

    def _pairs(self, nodes: np.ndarray, zones: Optional[np.ndarray], servers) -> np.ndarray:
        """Delays from clients at ``nodes`` in ``zones`` to ``servers`` (broadcast).

        An unrestricted matrix reads no zones and indexes its table as
        numpy does; the flat offsets of a restricted one cannot bounds-check
        each axis, so its server ids are checked first.
        """
        servers = np.asarray(servers, dtype=np.int64)
        if self.is_unrestricted:
            return self.node_server[nodes, servers]
        if servers.size and (servers.min() < 0 or servers.max() >= self.num_servers):
            raise IndexError(f"server index out of range for {self.num_servers} servers")
        out = _take_cells(self.node_server, nodes, servers)
        allowed = _take_cells(self.candidate_mask(), zones, servers)
        if np.ndim(out) == 0:
            return np.where(allowed, out, self.fill_value)
        # Both gathers are fresh: mask the delays in place.
        np.copyto(out, self.fill_value, where=np.logical_not(allowed, out=allowed))
        return out

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
        """GreZ's cost table: ``(num_zones, K)`` int32 over-bound counts.

        Entry ``[z, j]`` counts zone ``z``'s clients whose delay to its
        candidate ``sorted_candidates()[z, j]`` exceeds ``bound``: the
        paper's initial cost ``C^I`` on the only cells that carry
        information, since every other server reports the sentinel delay to
        the whole zone and so counts the zone population.  An unrestricted
        matrix's table is the full ``(num_zones, m)`` ``C^I``, column ``j``
        being server ``j``.

        Built on first read for a bound (:meth:`_count_over_bound`) and
        cached; on a restricted matrix a churn delta moves it onto the next
        matrix and updates it in O(churn × K) (:meth:`with_clients`).
        Read-only, and valid until this matrix's clients advance.
        """
        table = self._cost_table
        if table is None or table.bound != bound:
            over_bound = self.node_server > bound
            table = _CostTable(bound, self._count_over_bound(over_bound), over_bound)
            object.__setattr__(self, "_cost_table", table)
        table.read = True
        return _read_only(table.counts.view())

    def zone_over_bound_counts(self, bound: float) -> np.ndarray:
        """Per-zone count of clients whose delay to each server exceeds ``bound``.

        The full-width form of :meth:`over_bound_table`: a fresh C-contiguous
        float64 ``(num_zones, m)`` array holding each zone's population,
        with the table's counts written over its candidate cells.  Equal to
        scattering ``(delays > bound)`` per client into its zone.  An
        unrestricted matrix's table already is full width.
        """
        if self.is_unrestricted:
            return self.over_bound_table(bound).astype(np.float64)
        per_zone = np.empty((self.num_zones, self.num_servers))
        per_zone[...] = np.bincount(self.client_zones, minlength=self.num_zones)[:, None]
        np.put_along_axis(per_zone, self.sorted_candidates(), self.over_bound_table(bound), axis=1)
        return per_zone

    def _count_over_bound(self, over_bound: np.ndarray) -> np.ndarray:
        """A fresh :meth:`over_bound_table` from every client.

        ``over_bound`` is the ``node_server > bound`` indicator.  When the
        clients' K indicators are no more cells than the (zones × nodes)
        count matrix, they are added up directly (:meth:`_over_bound_cells`).
        Otherwise the table is a (zones × nodes) @ (nodes × servers) product
        of client counts and 0/1 over-bound indicators, whose candidate
        cells are kept.  Every
        partial sum is an integer no larger than a zone's population: below
        ``2**24`` clients the float32 product is exact in any summation
        order, and it runs at twice the float64 rate; larger populations
        multiply in float64.  The counts and their product are built per
        chunk of zone rows, so no ``(zones × nodes)`` or ``(zones ×
        servers)`` array is ever made.
        """
        num_nodes = self.node_server.shape[0]
        num_zones, top_k = self.zone_candidates.shape
        if self.num_clients * top_k <= num_zones * num_nodes:
            cells = self._over_bound_cells(over_bound, np.arange(self.num_clients))
            counts = np.bincount(cells, minlength=num_zones * top_k)
            return counts.astype(np.int32).reshape(num_zones, top_k)
        dtype = np.float32 if self.num_clients < 2**24 else np.float64
        over_bound = over_bound.astype(dtype)
        candidates = None if self.is_unrestricted else self.sorted_candidates()
        table = np.empty(self.zone_candidates.shape, dtype=np.int32)
        # Sorted (zone, node) cells: each chunk's clients are one slice.
        cells = np.sort(self.client_zones * num_nodes + self.client_nodes)
        for rows in row_chunks(self.num_zones, num_nodes, _COUNT_CHUNK_CELLS):
            first = rows.start * num_nodes
            start, stop = np.searchsorted(cells, (first, rows.stop * num_nodes))
            counts = np.bincount(
                cells[start:stop] - first, minlength=(rows.stop - rows.start) * num_nodes
            ).reshape(-1, num_nodes).astype(dtype)
            product = counts @ over_bound
            if candidates is not None:
                product = np.take_along_axis(product, candidates[rows], axis=1)
            table[rows] = product
        return table

    def _over_bound_cells(self, over_bound: np.ndarray, clients: np.ndarray) -> np.ndarray:
        """Flat cost-table cells ``zone * K + j`` where a client is over the bound.

        ``over_bound`` is the ``node_server > bound`` indicator.  Each
        client's K indicators are gathered by flat offset (as in
        :func:`_take_cells`) one row chunk at a time, so the temporaries
        stay at :data:`~repro.utils.chunks.CHUNK_CELLS` cells; only the set
        ones are kept.  A cell appears once per client it counts.  An
        unrestricted matrix's K indicators are its clients' whole rows.
        """
        candidates = self.sorted_candidates()
        top_k = candidates.shape[1]
        row_stride, col_stride = (stride // over_bound.itemsize for stride in over_bound.strides)
        indicators = over_bound.ravel(order="K")
        cells = []
        for rows in row_chunks(clients.size, top_k):
            chunk = clients[rows]
            zones = self.client_zones[chunk]
            if self.is_unrestricted:
                hits = np.flatnonzero(over_bound[self.client_nodes[chunk]])
            else:
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
        without a ``(k, m)`` array.  Node-space sums: a zone's clients at
        one node are counted once and multiplied, so the summation order is
        not the clients' (:meth:`zone_move_aggregates` picks per matrix).
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

    def zone_move_aggregates(
        self, bound: float, server_self_delays: np.ndarray
    ) -> Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """The zone-move sweep's aggregate source for this matrix's clients.

        Returns a function of one sweep's scored ``zones`` (ascending ids),
        their ``members`` (ascending client ids) and each member's row in
        ``[0, len(zones))``, giving the rows of :meth:`zone_direct_aggregates`
        for those zones.  An unrestricted matrix gathers the members' delay
        rows and scatter-adds them (:func:`~repro.utils.scatter.scatter_add_2d`):
        each cell adds its members in ascending client order from ``0.0``,
        so a row does not depend on which other zones are scored.  A
        restricted matrix builds the node-space aggregates of every zone on
        the first call and slices them from then on.
        """
        self_delays = np.asarray(server_self_delays, dtype=np.float64)
        if self.is_unrestricted:

            def member_gather(zones, members, member_rows):
                direct = self.rows(members) + self_delays[None, :]
                shape = (zones.size, self.num_servers)
                within = scatter_add_2d(shape, member_rows, direct <= bound)
                excess = scatter_add_2d(shape, member_rows, np.maximum(direct - bound, 0.0))
                return within, excess

            return member_gather
        node_space: list = []

        def node_space_rows(zones, members, member_rows):
            if not node_space:
                node_space.extend(
                    self.zone_direct_aggregates(
                        bound, self.client_zones, self.num_zones, self_delays
                    )
                )
            return node_space[0][zones], node_space[1][zones]

        return node_space_rows

    def zone_delay_sums(self, client_zones: np.ndarray, num_zones: int) -> np.ndarray:
        """Per-zone sum of client delays to each server (``(num_zones, m)``).

        An unrestricted matrix adds each zone's delay rows in client order;
        a restricted one sums in node space.
        """
        if self.is_unrestricted:
            return scatter_add_2d((num_zones, self.num_servers), client_zones, self.toarray())
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
        matrix starts without one.  So does every unrestricted matrix: its
        clients' whole rows are the table's cells, and adding them up afresh
        (:meth:`_count_over_bound`) costs about what the update would.
        """
        client_nodes = np.asarray(client_nodes, dtype=np.int64)
        client_zones = np.asarray(client_zones, dtype=np.int64)
        self._check_clients(client_nodes, client_zones)
        matrix = self._derived(client_nodes=client_nodes, client_zones=client_zones)
        table = self._cost_table
        if self.is_unrestricted or old_to_new is None or changed is None:
            return matrix
        if table is None or not table.read:
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
        over_bound = table.over_bound
        flat = table.counts.reshape(-1)
        gone_cells = self._over_bound_cells(over_bound, np.flatnonzero(~kept))
        flat -= np.bincount(gone_cells, minlength=flat.size)
        arrived_cells = matrix._over_bound_cells(over_bound, np.flatnonzero(arrived))
        flat += np.bincount(arrived_cells, minlength=flat.size)
        object.__setattr__(
            matrix, "_cost_table", _CostTable(table.bound, table.counts, over_bound)
        )
        return matrix

    def with_servers(
        self, server_nodes: np.ndarray, node_server: np.ndarray
    ) -> "CompactDelayMatrix":
        """New matrix for a different fleet and its node→server table.

        ``node_server`` is the new fleet's table (:func:`node_server_table`),
        O(nodes·m) — independent of the client count.  An unrestricted
        matrix stays unrestricted; a restricted one re-selects ``min(top_k,
        m)`` candidates per zone from its stored zone anchors against the
        new fleet.
        """
        if self.is_unrestricted:
            return CompactDelayMatrix.unrestricted(
                node_server, self.client_nodes, self.client_zones, self.num_zones, server_nodes
            )
        candidates = _candidates_from_anchors(node_server, self.zone_anchors, self.top_k)
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
            top_k=self.top_k,
            fill_value=self.fill_value,
        )

    def with_node_server(self, node_server: np.ndarray) -> "CompactDelayMatrix":
        """New matrix with a substituted node→server table (overlay hook).

        Same fleet, clients and candidate sets — only the delay values
        change.  Scenario link-degradation overlays use this to scale the
        affected nodes' rows without touching the delay model or the
        candidate geometry; the candidate table and mask are shared since
        the candidate sets are unchanged, but not the cost table, whose
        counts the new delays change.
        """
        node_server = np.asarray(node_server, dtype=np.float64)
        if node_server.shape != self.node_server.shape:
            raise ValueError(
                f"node_server must keep shape {self.node_server.shape}, "
                f"got {node_server.shape}"
            )
        return self._derived(node_server=_read_only(node_server))

    def _derived(self, **fields) -> "CompactDelayMatrix":
        """This matrix with ``fields`` substituted, and no cost table.

        Every other field is this matrix's, already checked (and its
        candidate table sorted): they are copied over rather than put
        through the whole construction again.
        """
        matrix = object.__new__(CompactDelayMatrix)
        matrix.__dict__.update(self.__dict__, _cost_table=None, **fields)
        return matrix


def node_server_table(delay_model: "DelayModel", server_nodes: np.ndarray) -> np.ndarray:
    """``(num_nodes, m)`` exact node→server delay table (ms, read-only)."""
    server_nodes = delay_model._check_nodes(server_nodes, "server_nodes")
    # Advanced indexing already yields a fresh array; just seal it.
    return _read_only(delay_model.rtt[:, server_nodes])


def compact_delay_matrix(
    delay_model: "DelayModel",
    client_nodes: np.ndarray,
    client_zones: np.ndarray,
    num_zones: int,
    server_nodes: np.ndarray,
    top_k: Optional[int] = None,
) -> CompactDelayMatrix:
    """A world's client→server delays: every server a candidate, or top-K per zone.

    ``top_k=None`` (the ``"dense"`` backend) builds the unrestricted
    matrix; an integer (``"sparse"``) selects ``min(top_k, m)`` candidates
    per zone around the zone anchors.
    """
    node_server = node_server_table(delay_model, server_nodes)
    if top_k is None:
        return CompactDelayMatrix.unrestricted(
            node_server, client_nodes, client_zones, num_zones, server_nodes
        )
    anchors = zone_anchor_nodes(client_nodes, client_zones, num_zones, delay_model.num_nodes)
    return CompactDelayMatrix(
        server_nodes=server_nodes,
        node_server=node_server,
        client_nodes=client_nodes,
        client_zones=client_zones,
        zone_candidates=_candidates_from_anchors(node_server, anchors, top_k),
        zone_anchors=anchors,
        top_k=top_k,
    )
