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

from repro.topology.graph import Topology
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_probability

__all__ = ["WaxmanParams", "waxman_topology"]


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
    takes the outside node's label.  Runs once per AS in the hierarchical
    generator, so the labels live in one array relabelled in a single op per
    join.
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

    labels = np.array([find(x) for x in range(n)])
    extra: list[tuple[int, int]] = []
    while True:
        inside = labels == labels.min()
        if inside.all():
            return extra
        comp_nodes = np.flatnonzero(inside)
        sub = dist[comp_nodes]
        sub[:, inside] = np.inf
        i, v = divmod(int(np.argmin(sub)), n)
        extra.append((int(comp_nodes[i]), v))
        labels[inside] = labels[v]


def waxman_topology(
    num_nodes: int,
    params: WaxmanParams | None = None,
    seed: SeedLike = None,
    name: str = "waxman",
) -> Topology:
    """Generate a Waxman random topology.

    Parameters
    ----------
    num_nodes:
        Number of router nodes.
    params:
        :class:`WaxmanParams`; defaults to BRITE-like defaults.
    seed:
        RNG seed / generator.
    name:
        Name attached to the resulting :class:`Topology`.

    Returns
    -------
    Topology
        A connected topology (when ``params.ensure_connected``), with edge
        latencies proportional to Euclidean distance.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    params = params or WaxmanParams()
    rng = as_generator(seed)

    positions = rng.uniform(0.0, params.plane_size, size=(num_nodes, 2))
    if num_nodes == 1:
        return Topology(
            positions=positions,
            edges=np.zeros((0, 2), dtype=np.int64),
            latencies=np.zeros(0, dtype=np.float64),
            name=name,
        )

    dist = _pairwise_distances(positions)
    l_max = params.plane_size * np.sqrt(2.0)
    prob = params.alpha * np.exp(-dist / (params.beta * l_max))
    iu, ju = np.triu_indices(num_nodes, k=1)
    draws = rng.random(iu.size)
    keep = draws < prob[iu, ju]
    edge_list = list(zip(iu[keep].tolist(), ju[keep].tolist()))

    if params.ensure_connected:
        edge_list.extend(_connect_components(edge_list, dist, num_nodes))

    if edge_list:
        edges = np.array(edge_list, dtype=np.int64)
        latencies = dist[edges[:, 0], edges[:, 1]] * params.latency_per_unit
        # Guard against zero-length edges when two nodes land on the same point.
        latencies = np.maximum(latencies, 1e-3)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        latencies = np.zeros(0, dtype=np.float64)

    return Topology(positions=positions, edges=edges, latencies=latencies, name=name)
