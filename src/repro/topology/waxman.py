"""Waxman random-graph generator (router-level topology model).

The paper's BRITE configuration uses the Waxman model for the 25 router nodes
inside each AS domain.  In the Waxman model nodes are scattered uniformly in a
plane and each pair ``(u, v)`` is connected with probability

    P(u, v) = alpha * exp(-d(u, v) / (beta * L))

where ``d`` is the Euclidean distance and ``L`` the maximum possible distance
in the plane.  Because a raw Waxman sample may be disconnected (which would
make client-server delays undefined), the generator optionally augments the
sample with a minimum-latency spanning set of edges so the result is always
connected — the standard practice in topology generators, including BRITE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, check_probability

__all__ = ["WaxmanParams"]


@dataclass(frozen=True)
class WaxmanParams:
    """Parameters of the Waxman model.

    ``alpha`` controls overall edge density, ``beta`` controls the relative
    preference for long edges (larger beta → more long-distance edges).  The
    defaults match BRITE's defaults (alpha=0.15, beta=0.2).
    """

    alpha: float = 0.15
    beta: float = 0.2
    plane_size: float = 100.0
    latency_per_unit: float = 1.0
    ensure_connected: bool = True

    def __post_init__(self) -> None:
        check_probability(self.alpha, "alpha")
        check_positive(self.beta, "beta")
        check_positive(self.plane_size, "plane_size")
        check_positive(self.latency_per_unit, "latency_per_unit")


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrix for a small set of planar points."""
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _connect_components(
    edges: list[tuple[int, int]],
    dist: np.ndarray,
    n: int,
) -> list[tuple[int, int]]:
    """Add minimum-distance edges between connected components until connected.

    Components are labelled by their union-find root over ``edges`` (a union
    makes the second endpoint's root the root of the merged component).  While
    more than one component remains, the component with the smallest root
    label is joined to its nearest node outside it: the first minimum of
    ``dist[inside, outside]`` in row-major order, so distance ties go to the
    lowest inside node, then the lowest outside node.  The joined component
    takes the outside node's label.

    The join loop runs in plain Python over one stable row-wise argsort of
    ``dist`` and a cursor per node into its sorted row.  Each member of the
    joining component, in ascending order, advances its cursor past entries of
    its own component; the first entry left is its nearest outside node, ties
    going to the lowest column because the sort is stable.  A strict ``<``
    over ``(distance, member)`` then keeps the lowest inside node among equal
    distances, which together is the row-major first minimum above.  Components
    only grow, so a skipped entry never leaves the component and no cursor
    ever moves back: the whole loop walks each sorted row at most once.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    labels = [find(x) for x in range(n)]
    members: dict[int, list[int]] = {}
    for x, label in enumerate(labels):
        members.setdefault(label, []).append(x)
    extra: list[tuple[int, int]] = []
    if len(members) == 1:
        return extra

    rows = dist.tolist()
    order = np.argsort(dist, axis=1, kind="stable").tolist()
    cursor = [0] * n
    while len(members) > 1:
        label = min(members)
        inside = members.pop(label)
        best_u = best_v = -1
        best = 0.0
        for u in inside:
            row = order[u]
            c = cursor[u]
            while labels[row[c]] == label:
                c += 1
            cursor[u] = c
            v = row[c]
            d = rows[u][v]
            if best_u < 0 or d < best:
                best, best_u, best_v = d, u, v
        extra.append((best_u, best_v))
        target = labels[best_v]
        for u in inside:
            labels[u] = target
        members[target] = sorted(members[target] + inside)
    return extra


def _waxman_arrays(
    num_nodes: int,
    params: WaxmanParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one Waxman sample: ``(positions, edges, latencies)``, unvalidated.

    The hierarchical generator draws each AS's routers with it and shifts the
    positions into its AS plane before building the one validated
    :class:`Topology` per domain.
    """
    positions = rng.uniform(0.0, params.plane_size, size=(num_nodes, 2))
    dist = _pairwise_distances(positions)
    l_max = params.plane_size * np.sqrt(2.0)
    prob = params.alpha * np.exp(-dist / (params.beta * l_max))
    iu, ju = np.triu_indices(num_nodes, k=1)
    draws = rng.random(iu.size)
    keep = draws < prob[iu, ju]
    edge_list = list(zip(iu[keep].tolist(), ju[keep].tolist()))

    if params.ensure_connected:
        edge_list.extend(_connect_components(edge_list, dist, num_nodes))

    edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
    latencies = dist[edges[:, 0], edges[:, 1]] * params.latency_per_unit
    # Guard against zero-length edges when two nodes land on the same point.
    return positions, edges, np.maximum(latencies, 1e-3)
