"""Test-only oracle: the numpy union-find component connector of the Waxman generator.

A frozen copy of the original ``repro.topology.waxman._connect_components``
(per-iteration root rebuild, ``np.unique`` and an ``np.ix_`` candidate block).
The generator's list-based version must return the same extra edges, in the
same order, on every input; ``tests/test_topology_shortest_paths.py`` checks
that on generated cases with distance ties.
"""

from __future__ import annotations

import numpy as np


def connect_components(
    edges: list[tuple[int, int]],
    dist: np.ndarray,
    n: int,
) -> list[tuple[int, int]]:
    """Add minimum-distance edges between connected components until connected."""
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for u, v in edges:
        union(u, v)

    extra: list[tuple[int, int]] = []
    while True:
        roots = np.array([find(i) for i in range(n)])
        unique_roots = np.unique(roots)
        if unique_roots.size <= 1:
            break
        # Connect the first component to its nearest node in any other component.
        comp_nodes = np.flatnonzero(roots == unique_roots[0])
        other_nodes = np.flatnonzero(roots != unique_roots[0])
        sub = dist[np.ix_(comp_nodes, other_nodes)]
        flat = int(np.argmin(sub))
        i, j = np.unravel_index(flat, sub.shape)
        u, v = int(comp_nodes[i]), int(other_nodes[j])
        extra.append((u, v))
        union(u, v)
    return extra
