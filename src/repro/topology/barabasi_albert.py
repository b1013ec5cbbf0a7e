"""Barabási–Albert preferential-attachment generator (AS-level topology model).

The paper's BRITE configuration uses the Barabási–Albert (BA) model for the
20-node AS-level graph.  In the BA model the graph grows one node at a time;
each new node attaches to ``m`` existing nodes with probability proportional
to their current degree, producing the heavy-tailed degree distributions seen
in real AS graphs.

This implementation places nodes in a plane (so that edge latencies can be
distance-derived, as BRITE does) and supports an explicit RNG for
reproducibility.
"""

from __future__ import annotations

import numpy as np

from repro.topology.graph import Topology
from repro.utils.rng import SeedLike, as_generator

__all__ = ["barabasi_albert_topology"]


#: Edges each new node creates (BRITE's default ``m``).
M = 2
#: Side of the square plane the AS centres are scattered in.
PLANE_SIZE = 1000.0
#: AS-link latency per unit of distance between AS centres.
LATENCY_PER_UNIT = 0.05


def barabasi_albert_topology(
    num_nodes: int,
    seed: SeedLike = None,
    name: str = "barabasi-albert",
) -> Topology:
    """Generate a Barabási–Albert topology with distance-derived latencies.

    The first ``m + 1`` nodes form a clique (the usual seed graph choice so
    preferential attachment has well-defined degrees); every subsequent node
    attaches to ``m`` distinct existing nodes chosen with probability
    proportional to degree.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    rng = as_generator(seed)

    positions = rng.uniform(0.0, PLANE_SIZE, size=(num_nodes, 2))
    if num_nodes == 1:
        return Topology(
            positions=positions,
            edges=np.zeros((0, 2), dtype=np.int64),
            latencies=np.zeros(0, dtype=np.float64),
            name=name,
        )

    m = min(M, num_nodes - 1)
    seed_size = m + 1
    edges: list[tuple[int, int]] = []
    # Seed clique over the first m+1 nodes.
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            edges.append((u, v))

    # repeated_nodes holds one entry per edge endpoint, so sampling uniformly
    # from it is sampling proportionally to degree.
    repeated_nodes: list[int] = []
    for u, v in edges:
        repeated_nodes.extend((u, v))

    for new_node in range(seed_size, num_nodes):
        targets: set[int] = set()
        # Rejection-sample m distinct targets proportional to degree.
        while len(targets) < m:
            pick = repeated_nodes[int(rng.integers(0, len(repeated_nodes)))]
            targets.add(pick)
        for t in sorted(targets):
            edges.append((new_node, t))
            repeated_nodes.extend((new_node, t))

    edge_arr = np.array(edges, dtype=np.int64)
    diff = positions[edge_arr[:, 0]] - positions[edge_arr[:, 1]]
    dist = np.sqrt((diff**2).sum(axis=1))
    latencies = np.maximum(dist * LATENCY_PER_UNIT, 1e-3)
    return Topology(positions=positions, edges=edge_arr, latencies=latencies, name=name)
