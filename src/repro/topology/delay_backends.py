"""Pluggable delay backends: dense, coordinate-predicted and sparse delays.

Every scenario used to materialise a dense ``num_clients × num_servers``
delay matrix, so memory grew O(k·m) and capped worlds at a few thousand
clients.  The key structural fact this module exploits is that clients live
*at topology nodes*: ``delay(c, s) = rtt[node(c), node(s)]``, so a
``(num_nodes, num_servers)`` node→server table plus the ``(num_clients,)``
node index of every client determines every client→server delay exactly —
O(nodes·m + clients) state instead of O(k·m).

Three backends share that representation:

``"dense"``
    The executable specification: the existing :class:`DelayModel` slices,
    bit-identical to the historical behaviour.  Scenarios built with this
    backend carry a real ndarray, exactly as before.
``"coords"``
    The node→server table is *predicted* from Vivaldi-style network
    coordinates (:mod:`repro.topology.coordinates`) fitted once per delay
    model: O(n·dim) floats replace the O(n²) RTT matrix for delay queries,
    at a bounded relative prediction error.
``"sparse"``
    Exact per-node delays, but each zone is restricted to its top-K nearby
    candidate servers (selected from the topology around the zone's anchor
    node).  Delays to non-candidate servers report a large finite sentinel
    (:data:`SPARSE_FILL_DELAY_MS`), so the restriction expresses itself
    purely through delay values and every solver works unchanged — the
    per-instance candidate state is O(zones·K).

Compact scenarios carry a :class:`CompactDelayMatrix` in place of the dense
ndarray: a virtual ``(k, m)`` matrix exposing vectorised row / pair gathers
and zone-aggregated fast paths, which is all the solvers' hot loops need.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.topology.coordinates import (
    DEFAULT_COORDS_DIM,
    NetworkCoordinates,
    fit_network_coordinates,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.topology.delays import DelayModel

# One process-wide lock guards every lazily-filled backend cache (candidate
# masks, sorted candidate sets, coordinate embeddings).  The fills are rare —
# once per instance / delay model — so a shared lock costs nothing, and the
# double-checked fast path never takes it after the first resolution.
_CACHE_FILL_LOCK = threading.Lock()

__all__ = [
    "DELAY_BACKENDS",
    "DEFAULT_DELAY_BACKEND",
    "DEFAULT_COORDS_DIM",
    "DEFAULT_SPARSE_TOP_K",
    "SPARSE_FILL_DELAY_MS",
    "CompactDelayMatrix",
    "DelayBackend",
    "DenseDelayBackend",
    "CoordsDelayBackend",
    "SparseDelayBackend",
    "make_delay_backend",
    "network_coordinates_for",
]

#: Names accepted by configs and the ``--delay-backend`` CLI flag.
DELAY_BACKENDS = ("dense", "coords", "sparse")
#: The executable-spec default.
DEFAULT_DELAY_BACKEND = "dense"
#: Default per-zone candidate-set size of the sparse backend.
DEFAULT_SPARSE_TOP_K = 8
#: Finite sentinel delay (ms) reported for non-candidate servers — far above
#: any realistic delay bound, so such pairings always count as QoS violations,
#: yet finite so every arithmetic path stays well-defined.
SPARSE_FILL_DELAY_MS = 1.0e9


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
    """
    if not (table.flags.c_contiguous or table.flags.f_contiguous):
        table = np.ascontiguousarray(table)
    row_stride, col_stride = (stride // table.itemsize for stride in table.strides)
    return np.take(table.ravel(order="K"), rows * row_stride + cols * col_stride)


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
    """
    num_servers = node_server.shape[1]
    top_k = min(int(top_k), num_servers)
    anchor_delays = node_server[anchor_nodes]
    order = np.argsort(anchor_delays, axis=1, kind="stable")
    near = (top_k + 1) // 2
    if near >= top_k or top_k == num_servers:
        picks = order[:, :top_k]
    else:
        far = top_k - near
        step = (num_servers - near) // far  # >= 1 because far <= num_servers - near
        num_zones = order.shape[0]
        # (zones, far) rank comb: stride `step` keeps picks distinct per zone,
        # the zone-index phase makes consecutive zones cover different ranks.
        phases = (np.arange(num_zones) % step)[:, None]
        tail_ranks = near + np.arange(far)[None, :] * step + phases
        picks = np.concatenate(
            [order[:, :near], np.take_along_axis(order, tail_ranks, axis=1)], axis=1
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
    counts = np.zeros((num_zones, num_nodes), dtype=np.int64)
    if client_nodes.size:
        flat = np.bincount(
            client_zones * num_nodes + client_nodes, minlength=num_zones * num_nodes
        )
        counts = flat.reshape(num_zones, num_nodes)
    anchors = counts.argmax(axis=1).astype(np.int64)
    empty = counts.sum(axis=1) == 0
    if empty.any():
        if client_nodes.size:
            global_mode = int(np.bincount(client_nodes, minlength=num_nodes).argmax())
        else:
            global_mode = 0
        anchors[empty] = global_mode
    return anchors


@dataclass(frozen=True)
class CompactDelayMatrix:
    """A virtual ``(num_clients, num_servers)`` delay matrix in O(n·m + k) state.

    Entries are ``node_server[client_nodes[c], s]``; with candidate
    restriction (sparse backend) entries for servers outside the client
    zone's candidate set are :attr:`fill_value` instead.  The matrix carries
    the generating :class:`DelayBackend` so scenario deltas can rebuild the
    node→server table on server churn without densifying.

    Attributes
    ----------
    backend:
        The generating backend (rebuilds ``node_server`` on server churn).
    server_nodes:
        ``(m,)`` topology node of each server.
    node_server:
        ``(num_nodes, m)`` node→server delay table (ms, read-only).
    client_nodes:
        ``(k,)`` topology node of each client.
    client_zones / zone_candidates / zone_anchors / fill_value:
        Candidate restriction of the sparse backend (`None` for coords):
        zone of each client, ``(num_zones, K)`` candidate server ids per
        zone, the zone anchor nodes the candidates were selected from, and
        the sentinel delay reported for non-candidate servers.
    """

    backend: "DelayBackend"
    server_nodes: np.ndarray
    node_server: np.ndarray
    client_nodes: np.ndarray
    client_zones: Optional[np.ndarray] = None
    zone_candidates: Optional[np.ndarray] = None
    zone_anchors: Optional[np.ndarray] = None
    fill_value: float = SPARSE_FILL_DELAY_MS
    _allowed_cache: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _sorted_candidates_cache: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "server_nodes", np.asarray(self.server_nodes, dtype=np.int64)
        )
        object.__setattr__(
            self, "client_nodes", np.asarray(self.client_nodes, dtype=np.int64)
        )
        if self.node_server.ndim != 2:
            raise ValueError(
                f"node_server must be 2-D, got shape {self.node_server.shape}"
            )
        if self.server_nodes.shape != (self.node_server.shape[1],):
            raise ValueError("server_nodes must match node_server's column count")
        restriction = (self.client_zones is None, self.zone_candidates is None,
                       self.zone_anchors is None)
        if len(set(restriction)) != 1:
            raise ValueError(
                "client_zones, zone_candidates and zone_anchors must be given together"
            )
        if self.zone_candidates is not None:
            object.__setattr__(
                self, "client_zones", np.asarray(self.client_zones, dtype=np.int64)
            )
            object.__setattr__(
                self, "zone_candidates", np.asarray(self.zone_candidates, dtype=np.int64)
            )
            object.__setattr__(
                self, "zone_anchors", np.asarray(self.zone_anchors, dtype=np.int64)
            )
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
        """Zone count of the candidate restriction (0 when unrestricted)."""
        return 0 if self.zone_candidates is None else int(self.zone_candidates.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by this matrix's per-instance arrays.

        ``node_server`` is shared, backend-level state (one table per fleet
        snapshot, not per scenario), so it is counted once here but does not
        grow with the client count — the per-client cost is the index arrays.
        """
        total = self.server_nodes.nbytes + self.node_server.nbytes + self.client_nodes.nbytes
        if self.zone_candidates is not None:
            total += self.client_zones.nbytes + self.zone_candidates.nbytes
            total += self.zone_anchors.nbytes
        return total

    def candidate_mask(self) -> Optional[np.ndarray]:
        """The ``(num_zones, m)`` candidate mask, or ``None`` when unrestricted.

        Read-only and cached; the sparse backend's per-zone candidate sets as
        a boolean matrix.  The solvers use it to keep *fallback* placements
        delay-aware: a zone that cannot be placed within capacity should
        still land on a server its clients can actually reach, not on a
        sentinel-delay one.
        """
        if self.zone_candidates is None:
            return None
        return self._allowed()

    def _allowed(self) -> np.ndarray:
        """Cached ``(num_zones, m)`` candidate mask (sparse backend only).

        Double-checked against :data:`_CACHE_FILL_LOCK` so concurrent shard
        threads sharing an instance fill the cache at most once.
        """
        cached = self._allowed_cache
        if cached is None:
            with _CACHE_FILL_LOCK:
                cached = self._allowed_cache
                if cached is None:
                    num_zones, top_k = self.zone_candidates.shape
                    cached = np.zeros((num_zones, self.num_servers), dtype=bool)
                    rows = np.repeat(np.arange(num_zones), top_k)
                    cached[rows, self.zone_candidates.ravel()] = True
                    cached = _read_only(cached)
                    object.__setattr__(self, "_allowed_cache", cached)
        return cached

    def sorted_candidates(self) -> Optional[np.ndarray]:
        """The ``(num_zones, K)`` candidate sets, server ids ascending, or ``None``.

        ``None`` when the matrix has no candidate restriction (coords
        backend).  Candidate rows are sets — their stored order (near-first,
        then the strided tail) carries no meaning — so a once-per-instance
        row sort gives every consumer index-sorted lists without a per-query
        sort: :meth:`candidate_rows` gathers from it, and GreZ hands it to
        the placement engine as each zone's candidate table.  Read-only and
        cached; thread-safe via the same double-checked lock as
        :meth:`_allowed`.
        """
        if self.zone_candidates is None:
            return None
        cached = self._sorted_candidates_cache
        if cached is None:
            with _CACHE_FILL_LOCK:
                cached = self._sorted_candidates_cache
                if cached is None:
                    cached = _read_only(np.sort(self.zone_candidates, axis=1))
                    object.__setattr__(self, "_sorted_candidates_cache", cached)
        return cached

    def candidate_rows(
        self, clients: np.ndarray
    ) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Per-client candidate servers and exact delays to them, or ``None``.

        ``clients`` is a 1-D index array.  Returns ``(servers, delays)`` of
        shape ``(len(clients), K)`` — the
        client zone's candidate set with server ids ascending per row, and
        the true (non-sentinel) delays ``delay(c, s)`` to each.  The delay
        values are bitwise the entries :meth:`rows` reports for those
        servers.  ``None`` when the matrix has no candidate restriction
        (coords backend): every server is then a genuine candidate.

        Both gathers are ``np.take`` calls — whole candidate rows by zone,
        then single delays by flat offset (:func:`_take_cells`) — which
        numpy runs far faster than the equivalent 2-D fancy index.
        """
        if self.zone_candidates is None:
            return None
        clients = np.asarray(clients, dtype=np.int64)
        servers = np.take(self.sorted_candidates(), self.client_zones[clients], axis=0)
        return servers, _take_cells(self.node_server, self.client_nodes[clients][:, None], servers)

    # ------------------------------------------------------------------ #
    # Gathers — the dense fancy-indexing idioms the solvers rely on.
    # ------------------------------------------------------------------ #
    def rows(self, clients: Union[int, np.ndarray]) -> np.ndarray:
        """Delay rows, mirroring ``dense[clients]`` (fresh, writable array)."""
        clients = np.asarray(clients, dtype=np.int64)
        out = self.node_server[self.client_nodes[clients]]
        if self.zone_candidates is not None:
            if out.base is not None or not out.flags.writeable:
                out = out.copy()
            # In-place masked fill: one pass over the gathered rows instead
            # of np.where's extra full-size output allocation.
            np.copyto(
                out,
                self.fill_value,
                where=np.logical_not(self._allowed()[self.client_zones[clients]]),
            )
        elif out.base is not None or not out.flags.writeable:
            out = out.copy()
        return out

    def pairs(
        self, clients: Union[int, np.ndarray], servers: Union[int, np.ndarray]
    ) -> np.ndarray:
        """Elementwise delays, mirroring ``dense[clients, servers]`` broadcasting.

        Server ids must lie in ``[0, m)``.  The gathers run on flat offsets
        (:func:`_take_cells`); the values are the ones the 2-D index would
        read.
        """
        clients = np.asarray(clients, dtype=np.int64)
        servers = np.asarray(servers, dtype=np.int64)
        if servers.size and (servers.min() < 0 or servers.max() >= self.num_servers):
            raise IndexError(f"server index out of range for {self.num_servers} servers")
        out = _take_cells(self.node_server, self.client_nodes[clients], servers)
        if self.zone_candidates is not None:
            allowed = _take_cells(self._allowed(), self.client_zones[clients], servers)
            out = np.where(allowed, out, self.fill_value)
        return out

    def toarray(self) -> np.ndarray:
        """Materialise the full dense ``(k, m)`` matrix (small worlds only)."""
        return self.rows(np.arange(self.num_clients))

    # ------------------------------------------------------------------ #
    # Zone-aggregated fast paths — O(zones·nodes + nodes·m) instead of O(k·m).
    # ------------------------------------------------------------------ #
    def _zone_node_counts(
        self, client_zones: np.ndarray, num_zones: int, dtype=np.float64
    ) -> np.ndarray:
        """``(num_zones, num_nodes)`` count of clients per (zone, node) cell."""
        num_nodes = self.node_server.shape[0]
        if client_zones.size == 0:
            return np.zeros((num_zones, num_nodes), dtype=dtype)
        flat = np.bincount(
            np.asarray(client_zones, dtype=np.int64) * num_nodes + self.client_nodes,
            minlength=num_zones * num_nodes,
        )
        return flat.reshape(num_zones, num_nodes).astype(dtype)

    def zone_over_bound_counts(
        self, bound: float, client_zones: np.ndarray, num_zones: int
    ) -> np.ndarray:
        """Per-zone count of clients whose delay to each server exceeds ``bound``.

        Equivalent to scattering ``(delays > bound)`` per client into zones,
        but computed as a (zones × nodes) @ (nodes × servers) product.  The
        operands are integer counts and 0/1 indicators, so every partial sum
        is an integer no larger than a zone's population: below ``2**24``
        clients the float32 product is exact in any summation order, and it
        runs at twice the float64 rate.  Larger populations multiply in
        float64.  Returns a C-contiguous float64 ``(num_zones, m)`` array.
        """
        dtype = np.float32 if client_zones.size < 2**24 else np.float64
        counts = self._zone_node_counts(client_zones, num_zones, dtype)
        over = counts @ (self.node_server > bound).astype(dtype)
        if self.zone_candidates is None:
            return over.astype(np.float64, copy=False)
        if self.zone_candidates.shape[0] != num_zones:
            raise ValueError("num_zones must match the candidate sets' zone count")
        # A non-candidate server reports the sentinel delay to every client
        # of the zone, so it counts the whole zone: fill the zone populations
        # in, then copy the true counts of the candidate cells over them.
        per_zone = np.empty(over.shape)
        per_zone[...] = counts.sum(axis=1)[:, None]
        cells = (np.arange(num_zones)[:, None] * over.shape[1] + self.zone_candidates).ravel()
        per_zone.ravel()[cells] = over.take(cells)
        return per_zone

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
        if self.zone_candidates is not None:
            allowed = self._allowed()
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
        if self.zone_candidates is not None:
            zone_pop = counts.sum(axis=1)
            sums = np.where(self._allowed(), sums, zone_pop[:, None] * self.fill_value)
        return sums

    # ------------------------------------------------------------------ #
    # Scenario-delta transformations.
    # ------------------------------------------------------------------ #
    def with_clients(
        self, client_nodes: np.ndarray, client_zones: Optional[np.ndarray] = None
    ) -> "CompactDelayMatrix":
        """New matrix for a different client population (O(k), no regather).

        The node→server table and the candidate sets are shared by reference;
        only the per-client index arrays change.  Candidate sets are pinned
        at build time (they depend on zone anchors, not individual clients),
        which keeps churn epochs O(churn) and assignments stable.
        """
        if self.zone_candidates is not None and client_zones is None:
            raise ValueError("a candidate-restricted matrix needs the new client zones")
        return CompactDelayMatrix(
            backend=self.backend,
            server_nodes=self.server_nodes,
            node_server=self.node_server,
            client_nodes=client_nodes,
            client_zones=client_zones if self.zone_candidates is not None else None,
            zone_candidates=self.zone_candidates,
            zone_anchors=self.zone_anchors,
            fill_value=self.fill_value,
            _allowed_cache=self._allowed_cache,
            _sorted_candidates_cache=self._sorted_candidates_cache,
        )

    def with_servers(self, server_nodes: np.ndarray) -> "CompactDelayMatrix":
        """New matrix for a different fleet: rebuild the node→server table.

        O(nodes·m) — independent of the client count.  Candidate sets are
        re-selected from the stored zone anchors against the new fleet.
        """
        server_nodes = np.asarray(server_nodes, dtype=np.int64)
        node_server = self.backend.node_server_table(server_nodes)
        candidates = None
        if self.zone_candidates is not None:
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
            backend=self.backend,
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
        candidate geometry; caches are carried since the candidate sets are
        unchanged.
        """
        node_server = np.asarray(node_server, dtype=np.float64)
        if node_server.shape != self.node_server.shape:
            raise ValueError(
                f"node_server must keep shape {self.node_server.shape}, "
                f"got {node_server.shape}"
            )
        return CompactDelayMatrix(
            backend=self.backend,
            server_nodes=self.server_nodes,
            node_server=_read_only(node_server),
            client_nodes=self.client_nodes,
            client_zones=self.client_zones,
            zone_candidates=self.zone_candidates,
            zone_anchors=self.zone_anchors,
            fill_value=self.fill_value,
            _allowed_cache=self._allowed_cache,
            _sorted_candidates_cache=self._sorted_candidates_cache,
        )


# ---------------------------------------------------------------------- #
# Backends
# ---------------------------------------------------------------------- #
class DelayBackend:
    """Strategy for producing a scenario's delay arrays from a delay model."""

    name: str = "abstract"

    def __init__(self, delay_model: "DelayModel") -> None:
        self.delay_model = delay_model

    def node_server_table(self, server_nodes: np.ndarray) -> np.ndarray:
        """``(num_nodes, m)`` node→server delay table (read-only)."""
        raise NotImplementedError

    def server_server_delays(self, server_nodes: np.ndarray) -> np.ndarray:
        """Inter-server mesh delays (zero diagonal)."""
        raise NotImplementedError

    def client_matrix(
        self,
        client_nodes: np.ndarray,
        client_zones: np.ndarray,
        num_zones: int,
        server_nodes: np.ndarray,
    ) -> Union[np.ndarray, CompactDelayMatrix]:
        """The scenario's client→server delay matrix (dense or compact)."""
        raise NotImplementedError


class DenseDelayBackend(DelayBackend):
    """The executable spec: historical dense matrices, bit-identical."""

    name = "dense"

    def node_server_table(self, server_nodes: np.ndarray) -> np.ndarray:
        return self.delay_model.client_server_delays(
            np.arange(self.delay_model.num_nodes), server_nodes
        )

    def server_server_delays(self, server_nodes: np.ndarray) -> np.ndarray:
        return self.delay_model.server_server_delays(server_nodes)

    def client_matrix(
        self,
        client_nodes: np.ndarray,
        client_zones: np.ndarray,
        num_zones: int,
        server_nodes: np.ndarray,
    ) -> np.ndarray:
        return self.delay_model.client_server_delays(client_nodes, server_nodes)


class CoordsDelayBackend(DelayBackend):
    """Vivaldi-coordinate predictions: O(n·dim) state, approximate delays."""

    name = "coords"

    def __init__(self, delay_model: "DelayModel", dim: int = DEFAULT_COORDS_DIM) -> None:
        super().__init__(delay_model)
        self.dim = int(dim)

    @property
    def coordinates(self) -> NetworkCoordinates:
        """The fitted embedding (cached on the delay model, shared per dim)."""
        return network_coordinates_for(self.delay_model, dim=self.dim)

    def node_server_table(self, server_nodes: np.ndarray) -> np.ndarray:
        coords = self.coordinates
        all_nodes = np.arange(coords.num_nodes)
        return _read_only(coords.predict_matrix(all_nodes, server_nodes))

    def server_server_delays(self, server_nodes: np.ndarray) -> np.ndarray:
        mesh = self.coordinates.predict_matrix(server_nodes, server_nodes)
        mesh *= self.delay_model.server_mesh_factor
        np.fill_diagonal(mesh, 0.0)
        return mesh

    def client_matrix(
        self,
        client_nodes: np.ndarray,
        client_zones: np.ndarray,
        num_zones: int,
        server_nodes: np.ndarray,
    ) -> CompactDelayMatrix:
        server_nodes = np.asarray(server_nodes, dtype=np.int64)
        return CompactDelayMatrix(
            backend=self,
            server_nodes=server_nodes,
            node_server=self.node_server_table(server_nodes),
            client_nodes=client_nodes,
        )


class SparseDelayBackend(DelayBackend):
    """Exact delays on per-zone top-K candidate servers, sentinel elsewhere."""

    name = "sparse"

    def __init__(
        self, delay_model: "DelayModel", top_k: int = DEFAULT_SPARSE_TOP_K
    ) -> None:
        super().__init__(delay_model)
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = int(top_k)

    def node_server_table(self, server_nodes: np.ndarray) -> np.ndarray:
        server_nodes = self.delay_model._check_nodes(server_nodes, "server_nodes")
        # Advanced indexing already yields a fresh array; just seal it.
        return _read_only(self.delay_model.rtt[:, server_nodes])

    def server_server_delays(self, server_nodes: np.ndarray) -> np.ndarray:
        return self.delay_model.server_server_delays(server_nodes)

    def client_matrix(
        self,
        client_nodes: np.ndarray,
        client_zones: np.ndarray,
        num_zones: int,
        server_nodes: np.ndarray,
    ) -> CompactDelayMatrix:
        server_nodes = np.asarray(server_nodes, dtype=np.int64)
        node_server = self.node_server_table(server_nodes)
        anchors = zone_anchor_nodes(
            client_nodes, client_zones, num_zones, self.delay_model.num_nodes
        )
        candidates = _candidates_from_anchors(node_server, anchors, self.top_k)
        return CompactDelayMatrix(
            backend=self,
            server_nodes=server_nodes,
            node_server=node_server,
            client_nodes=client_nodes,
            client_zones=client_zones,
            zone_candidates=candidates,
            zone_anchors=anchors,
        )


def make_delay_backend(
    name: str,
    delay_model: "DelayModel",
    coords_dim: int = DEFAULT_COORDS_DIM,
    sparse_top_k: int = DEFAULT_SPARSE_TOP_K,
) -> DelayBackend:
    """Instantiate a delay backend by name."""
    if name == "dense":
        return DenseDelayBackend(delay_model)
    if name == "coords":
        return CoordsDelayBackend(delay_model, dim=coords_dim)
    if name == "sparse":
        return SparseDelayBackend(delay_model, top_k=sparse_top_k)
    raise ValueError(f"unknown delay backend {name!r}; expected one of {DELAY_BACKENDS}")


def network_coordinates_for(
    delay_model: "DelayModel", dim: int = DEFAULT_COORDS_DIM
) -> NetworkCoordinates:
    """Fit (or reuse) the delay model's network-coordinate embedding.

    The fit is cached on the delay model keyed by dimension, so every
    scenario, federation shard and experiment replication sharing a delay
    model shares one embedding — and the fit's internal RNG never touches
    any scenario stream.  Double-checked locking makes concurrent first
    callers (thread-parallel shard stepping) agree on a single fit.
    """
    cache = getattr(delay_model, "_coords_cache", None)
    coords = None if cache is None else cache.get(dim)
    if coords is None:
        with _CACHE_FILL_LOCK:
            cache = getattr(delay_model, "_coords_cache", None)
            if cache is None:
                cache = {}
                delay_model._coords_cache = cache
            coords = cache.get(dim)
            if coords is None:
                coords = fit_network_coordinates(delay_model.rtt, dim=dim)
                cache[dim] = coords
    return coords
