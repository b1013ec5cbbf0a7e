"""Waxman random-graph generator (router-level topology model).

The paper's BRITE configuration uses the Waxman model for the 25 router nodes
inside each AS domain.  In the Waxman model nodes are scattered uniformly in a
plane and each pair ``(u, v)`` is connected with probability

    P(u, v) = alpha * exp(-d(u, v) / (beta * L))

where ``d`` is the Euclidean distance and ``L`` the maximum possible distance
in the plane.  Because a raw Waxman sample may be disconnected (which would
make client-server delays undefined), the generator augments the
sample with a minimum-latency spanning set of edges so the result is always
connected — the standard practice in topology generators, including BRITE.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ALPHA", "BETA", "PLANE_SIZE", "LATENCY_PER_UNIT"]


#: Waxman ``alpha`` (overall edge density), BRITE's default.
ALPHA = 0.15
#: Waxman ``beta`` (preference for long edges; larger means more), BRITE's default.
BETA = 0.2
#: Side of the square plane an AS's routers are scattered in.
PLANE_SIZE = 100.0
#: Link latency per unit of planar distance.
LATENCY_PER_UNIT = 1.0


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrices of ``(..., n, 2)`` planar points."""
    diff = positions[..., :, None, :] - positions[..., None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _connect_components(
    edges: Sequence[Sequence[int]],
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


def _waxman_stack(
    num_nodes: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one Waxman sample per generator: ``(positions, edges, latencies)``, unvalidated.

    Sample ``k`` draws its positions, then its edge coins, from ``rngs[k]``
    alone.  Distances, probabilities and keep masks for every sample come
    from one stacked ``(count, n, n)`` pass, elementwise the operations of a
    lone sample, so each sample is bitwise what it would be on its own; only
    the component connector runs per sample.  ``positions`` is
    ``(count, n, 2)``; ``edges`` index the samples' nodes concatenated in
    order (sample ``k``'s node ``u`` is ``k * n + u``), each sample's kept
    pairs in ``triu`` order, then its connector edges.
    """
    count = len(rngs)
    iu, ju = np.triu_indices(num_nodes, k=1)
    positions = np.empty((count, num_nodes, 2))
    draws = np.empty((count, iu.size))
    for k, rng in enumerate(rngs):
        positions[k] = rng.uniform(0.0, PLANE_SIZE, size=(num_nodes, 2))
        rng.random(out=draws[k])
    dist = _pairwise_distances(positions)
    l_max = PLANE_SIZE * np.sqrt(2.0)
    sample, pair = np.nonzero(draws < ALPHA * np.exp(-dist[:, iu, ju] / (BETA * l_max)))
    kept = np.stack([sample, iu[pair], ju[pair]], axis=1)
    bounds = np.searchsorted(sample, np.arange(count + 1)).tolist()
    pairs = kept[:, 1:].tolist()
    extra = [
        (k, u, v)
        for k in range(count)
        for u, v in _connect_components(pairs[bounds[k]:bounds[k + 1]], dist[k], num_nodes)
    ]
    # A stable sort by sample puts each sample's connector edges after its kept pairs.
    triples = np.concatenate([kept, np.array(extra, dtype=np.int64).reshape(-1, 3)])
    sample, us, vs = triples[np.argsort(triples[:, 0], kind="stable")].T
    latencies = dist[sample, us, vs] * LATENCY_PER_UNIT
    edges = np.stack([us, vs], axis=1) + (sample * num_nodes)[:, None]
    # Guard against zero-length edges when two nodes land on the same point.
    return positions, edges, np.maximum(latencies, 1e-3)
