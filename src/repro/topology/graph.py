"""Core network-topology container used by every other subsystem.

A :class:`Topology` is an undirected graph whose nodes are network routers /
points of presence and whose edges carry a one-way propagation latency (in
milliseconds).  It is the substrate on which servers and clients are placed
and from which every client-server / server-server round-trip delay used by
the assignment algorithms is derived.

The class stores plain numpy arrays.  SciPy is imported only by
:meth:`Topology.adjacency_matrix`.  The all-pairs shortest paths are computed
by a source-vectorised label-correcting relaxation on a dense matrix (every
step relaxes one edge for all sources at once), which handles the 500-node
topologies of the paper in a few milliseconds and returns exactly the matrix
Dijkstra would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.utils.distinct import sorted_distinct

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["MAX_RTT_MS", "Topology", "TopologyError"]

#: Paper Section 4.1: the largest RTT between two topology nodes is rescaled to 500 ms.
MAX_RTT_MS = 500.0


class TopologyError(RuntimeError):
    """Raised when a topology is malformed (disconnected, empty, bad weights)."""


def _all_pairs_left_fold(num_nodes: int, edges: np.ndarray, latencies: np.ndarray) -> np.ndarray:
    """All-pairs minimum path lengths of a simple, positively weighted graph.

    ``dist[s, v]`` is the minimum over paths ``s -> v`` of the path length
    summed left to right from ``s`` (``inf`` when ``v`` is unreachable).  The
    matrix is Fortran-ordered and filled by relaxations
    ``dist[:, v] = min(dist[:, v], dist[:, u] + w)``, each one a contiguous
    column op that relaxes edge ``u -> v`` for every source at once:

    1. peel degree-1 nodes repeatedly, which leaves the 2-core plus the
       hanging forest, recording each peeled node's parent and edge weight;
    2. one upward pass over the peeled nodes, leaves first (a degree-1
       node's relaxations reduce to a store and an add);
    3. sweeps over the 2-core's edges in BFS order (every component): the
       "up" edges in reverse BFS order, then the "down" edges.  The first
       sweep relaxes every edge; each later one relaxes the edges whose tail
       column changed in the sweep before, until a sweep changes nothing;
    4. one downward pass over the peeled nodes in reverse peel order.

    The result is a fixed point of every edge's relaxation, which with
    positive weights is the least one (see
    :meth:`Topology.shortest_path_latencies`).
    """
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(num_nodes)]
    for (u, v), w in zip(edges.tolist(), latencies.tolist()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    degree = [len(neighbours) for neighbours in adjacency]
    peeled = [False] * num_nodes
    hanging: list[tuple[int, int, float]] = []  # (node, parent, weight), leaves first
    stack = [x for x in range(num_nodes) if degree[x] == 1]
    while stack:
        x = stack.pop()
        if degree[x] != 1:
            continue  # the other end of a two-node tree, peeled first
        parent, w = next((y, w) for y, w in adjacency[x] if not peeled[y])
        peeled[x] = True
        degree[x] = 0
        degree[parent] -= 1
        hanging.append((x, parent, w))
        if degree[parent] == 1:
            stack.append(parent)

    rank = [-1] * num_nodes
    order: list[int] = []
    for root in range(num_nodes):
        if peeled[root] or rank[root] >= 0:
            continue
        head = len(order)
        rank[root] = head
        order.append(root)
        while head < len(order):
            a = order[head]
            head += 1
            for b, _ in adjacency[a]:
                if not peeled[b] and rank[b] < 0:
                    rank[b] = len(order)
                    order.append(b)
    down = [
        (a, b, w) for a in order for b, w in adjacency[a] if not peeled[b] and rank[b] > rank[a]
    ]
    sweep = [(b, a, w) for a, b, w in reversed(down)] + down

    dist = np.full((num_nodes, num_nodes), np.inf, order="F")
    np.fill_diagonal(dist, 0.0)
    col = [dist[:, j] for j in range(num_nodes)]
    tmp = np.empty(num_nodes)

    # A leaf's column is finite only on its own row (0 there): nothing
    # relaxes into it before its own downward step.  Its upward relaxation
    # is then the one store ``0 + w`` (the parent's entry on that row is
    # still inf), and its downward one is the parent's column plus ``w``,
    # with the leaf's own 0 kept on the diagonal.
    for x, parent, w in hanging:
        if len(adjacency[x]) == 1:
            dist[x, parent] = w
        else:
            np.add(col[x], w, out=tmp)
            np.minimum(col[parent], tmp, out=col[parent])

    core = np.array(order, dtype=np.int64)
    pending = sweep
    while pending:
        before = dist[:, core]
        for u, v, w in pending:
            np.add(col[u], w, out=tmp)
            np.minimum(col[v], tmp, out=col[v])
        changed = set(core[(dist[:, core] != before).any(axis=0)].tolist())
        pending = [edge for edge in sweep if edge[0] in changed]

    for x, parent, w in reversed(hanging):
        if len(adjacency[x]) == 1:
            np.add(col[parent], w, out=col[x])
            dist[x, x] = 0.0
        else:
            np.add(col[parent], w, out=tmp)
            np.minimum(col[x], tmp, out=col[x])
    return dist


@dataclass
class Topology:
    """An undirected latency-weighted network graph.

    Parameters
    ----------
    positions:
        ``(num_nodes, 2)`` array of planar (or lon/lat) coordinates.  Only used
        for distance-derived latencies and plotting; algorithms never read it.
    edges:
        ``(num_edges, 2)`` integer array of undirected edges; the graph must
        be simple (no self-loops, each node pair at most once).
    latencies:
        ``(num_edges,)`` array of one-way edge latencies in milliseconds.
    node_domain:
        Optional ``(num_nodes,)`` integer array giving the AS / domain id of
        each node (used by the hierarchical generator and by the correlation
        model that groups clients into geographic regions).
    name:
        Human-readable identifier (e.g. ``"brite-hier-500"``).
    """

    positions: np.ndarray
    edges: np.ndarray
    latencies: np.ndarray
    node_domain: Optional[np.ndarray] = None
    name: str = "topology"

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64)
        self.latencies = np.asarray(self.latencies, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise TopologyError(f"positions must be (n, 2), got {self.positions.shape}")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise TopologyError(f"edges must be (e, 2), got {self.edges.shape}")
        if self.latencies.shape != (self.edges.shape[0],):
            raise TopologyError(
                f"latencies must have one entry per edge, got {self.latencies.shape} "
                f"for {self.edges.shape[0]} edges"
            )
        if self.num_nodes == 0:
            raise TopologyError("topology must have at least one node")
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= self.num_nodes):
            raise TopologyError("edge endpoints out of range")
        if self.edges.size:
            lo = self.edges.min(axis=1)
            hi = self.edges.max(axis=1)
            if (lo == hi).any():
                raise TopologyError("self-loop edges are not allowed")
            if sorted_distinct(lo * self.num_nodes + hi).size != self.num_edges:
                raise TopologyError("duplicate undirected edges are not allowed")
        if not np.isfinite(self.latencies).all():
            raise TopologyError("all edge latencies must be finite (got NaN or inf)")
        if self.latencies.size and (self.latencies <= 0).any():
            raise TopologyError("all edge latencies must be strictly positive")
        if self.node_domain is not None:
            self.node_domain = np.asarray(self.node_domain, dtype=np.int64)
            if self.node_domain.shape != (self.num_nodes,):
                raise TopologyError("node_domain must have one entry per node")

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the topology."""
        return int(self.positions.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.edges.shape[0])

    @property
    def num_domains(self) -> int:
        """Number of distinct AS / domain ids (1 when no domain labels exist)."""
        if self.node_domain is None:
            return 1
        return int(sorted_distinct(self.node_domain).size)

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> sp.csr_matrix:
        """Sparse symmetric adjacency matrix with latencies as weights."""
        import scipy.sparse as sp

        n = self.num_nodes
        if self.num_edges == 0:
            return sp.csr_matrix((n, n))
        row = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        col = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        data = np.concatenate([self.latencies, self.latencies])
        return sp.csr_matrix((data, (row, col)), shape=(n, n))

    def is_connected(self) -> bool:
        """True iff every node can reach every other node (union-find over the edges)."""
        parent = list(range(self.num_nodes))
        components = self.num_nodes
        for u, v in self.edges.tolist():
            while parent[u] != u:  # find with path halving
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            if u != v:
                parent[u] = v
                components -= 1
        return components == 1

    def degree(self) -> np.ndarray:
        """Per-node degree counts."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        if self.num_edges:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def domain_nodes(self, domain: int) -> np.ndarray:
        """Node indices that belong to AS / domain ``domain``."""
        if self.node_domain is None:
            if domain != 0:
                raise ValueError("topology has no domain labels; only domain 0 exists")
            return np.arange(self.num_nodes)
        return np.flatnonzero(self.node_domain == domain)

    # ------------------------------------------------------------------ #
    # Delay computation
    # ------------------------------------------------------------------ #
    def _all_pairs(self) -> Tuple[np.ndarray, float]:
        """The all-pairs matrix, Fortran-ordered as built, and its largest entry.

        Entries are sums of positive weights or ``+inf``, never NaN, so the
        maximum alone detects a pair with no path.
        """
        dist = _all_pairs_left_fold(self.num_nodes, self.edges, self.latencies)
        dmax = float(dist.max())
        if dmax == np.inf:
            raise TopologyError(
                f"topology '{self.name}' is disconnected; cannot compute all-pairs delays"
            )
        return dist, dmax

    def shortest_path_latencies(self) -> np.ndarray:
        """All-pairs one-way shortest-path latency matrix (milliseconds).

        ``dist[s, v]`` is the least path length from ``s`` to ``v``, each path
        summed left to right from ``s``.  The topology is a simple graph with
        finite, strictly positive latencies (``__post_init__`` enforces both), and
        under that precondition the matrix is bitwise the one Dijkstra
        returns: with ``w > 0`` and rounding to nearest, ``fl(a + w) >= a``
        and ``fl(a + w)`` is monotone in ``a``, so any sequence of edge
        relaxations that reaches a fixed point reaches the least one, the
        minimum left-fold path length — which is also what Dijkstra
        computes.  The relaxation order is therefore free; see
        :func:`_all_pairs_left_fold` for the one used.

        Raises :class:`TopologyError` if the topology is disconnected, since a
        disconnected DVE substrate has no meaningful client-server delays.
        """
        return np.ascontiguousarray(self._all_pairs()[0])

    def round_trip_delays(self) -> np.ndarray:
        """All-pairs round-trip delay matrix in milliseconds, scaled to :data:`MAX_RTT_MS`.

        RTT is twice the one-way shortest path latency, linearly rescaled so
        the largest RTT equals :data:`MAX_RTT_MS` — the paper's setup, where
        "the maximum round-trip delay between any two nodes is set to
        500 ms".  Doubling is exact, so the largest RTT is ``2 * dmax`` for
        the largest one-way latency ``dmax``.  A one-node topology stays 0.

        The matrix is rescaled in place and keeps the Fortran order the
        all-pairs pass builds, so it is the only ``nodes × nodes`` buffer
        made; the node→server tables are sliced column-wise out of it.
        """
        rtt, dmax = self._all_pairs()
        rtt *= 2.0
        if dmax > 0:
            rtt *= MAX_RTT_MS / (2.0 * dmax)
        np.fill_diagonal(rtt, 0.0)
        return rtt
