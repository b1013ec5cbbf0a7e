"""Test-only oracle: the per-AS hierarchical topology build.

A frozen copy of the original ``repro.topology.hierarchical`` construction:
one Waxman draw per AS (``_waxman_arrays``), one validated per-AS
:class:`~repro.topology.graph.Topology` each, and ``merge_topologies`` to
stitch the domains together.  The generator's stacked build (one
``(num_as, n, n)`` distance, probability and keep-mask pass) must return a
topology with the same positions, edges, latencies and domains, byte for
byte, and leave the seed generator in the same state;
``tests/test_topology_generators.py`` checks that over
:class:`~repro.topology.hierarchical.HierarchicalParams`.

The AS-level backbone and the component connector are not part of what was
replaced, so the oracle calls the library's own.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.topology.barabasi_albert import LATENCY_PER_UNIT as AS_LATENCY_PER_UNIT
from repro.topology.barabasi_albert import barabasi_albert_topology
from repro.topology.graph import Topology, TopologyError
from repro.topology.hierarchical import BORDER_ROUTERS_PER_AS, HierarchicalParams
from repro.topology.waxman import ALPHA, BETA, LATENCY_PER_UNIT, PLANE_SIZE, _connect_components
from repro.utils.rng import as_generator, spawn_generators


def waxman_arrays(num_nodes: int, rng: np.random.Generator):
    """One AS's Waxman sample: ``(positions, edges, latencies)``."""
    positions = rng.uniform(0.0, PLANE_SIZE, size=(num_nodes, 2))
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    l_max = PLANE_SIZE * np.sqrt(2.0)
    prob = ALPHA * np.exp(-dist / (BETA * l_max))
    iu, ju = np.triu_indices(num_nodes, k=1)
    draws = rng.random(iu.size)
    keep = draws < prob[iu, ju]
    edge_list = list(zip(iu[keep].tolist(), ju[keep].tolist()))

    edge_list.extend(_connect_components(edge_list, dist, num_nodes))

    edges = np.array(edge_list, dtype=np.int64).reshape(-1, 2)
    latencies = dist[edges[:, 0], edges[:, 1]] * LATENCY_PER_UNIT
    return positions, edges, np.maximum(latencies, 1e-3)


def merge_topologies(
    parts: Iterable[Topology],
    cross_edges: Iterable[Tuple[int, int, float]],
    name: str = "merged",
) -> Topology:
    """Concatenate disjoint topologies and add global-index cross edges."""
    parts = list(parts)
    if not parts:
        raise TopologyError("merge_topologies needs at least one part")
    offsets = np.cumsum([0] + [p.num_nodes for p in parts[:-1]])
    positions = np.vstack([p.positions for p in parts])
    edges = []
    latencies = []
    domains = []
    for offset, part in zip(offsets, parts):
        if part.num_edges:
            edges.append(part.edges + offset)
            latencies.append(part.latencies)
        if part.node_domain is not None:
            domains.append(part.node_domain)
        else:
            domains.append(np.zeros(part.num_nodes, dtype=np.int64))
    cross = list(cross_edges)
    if cross:
        cross_arr = np.array([(u, v) for u, v, _ in cross], dtype=np.int64)
        cross_lat = np.array([lat for _, _, lat in cross], dtype=np.float64)
        edges.append(cross_arr)
        latencies.append(cross_lat)
    all_edges = np.vstack(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    all_lat = np.concatenate(latencies) if latencies else np.zeros(0, dtype=np.float64)
    return Topology(
        positions=positions,
        edges=all_edges,
        latencies=all_lat,
        node_domain=np.concatenate(domains),
        name=name,
    )


def hierarchical_topology(
    params: HierarchicalParams, rng: np.random.Generator, name: str = "brite-hierarchical"
) -> Topology:
    """The per-AS build, drawing from ``rng`` exactly as the generator does."""
    rng = as_generator(rng)
    as_rng, *router_rngs = spawn_generators(rng, params.num_as + 1)
    as_level = barabasi_albert_topology(params.num_as, seed=as_rng, name="as-level")

    parts: list[Topology] = []
    for as_id in range(params.num_as):
        positions, edges, latencies = waxman_arrays(params.routers_per_as, router_rngs[as_id])
        centre = as_level.positions[as_id]
        parts.append(
            Topology(
                positions=positions - PLANE_SIZE / 2.0 + centre,
                edges=edges,
                latencies=latencies,
                node_domain=np.full(params.routers_per_as, as_id, dtype=np.int64),
                name=f"as-{as_id}",
            )
        )

    offsets = np.cumsum([0] + [p.num_nodes for p in parts[:-1]])
    borders = {}
    for as_id in range(params.num_as):
        n_border = min(BORDER_ROUTERS_PER_AS, params.routers_per_as)
        borders[as_id] = rng.choice(params.routers_per_as, size=n_border, replace=False)

    cross_edges = []
    for (a, b), latency in zip(as_level.edges, as_level.latencies):
        a, b = int(a), int(b)
        u_local = int(rng.choice(borders[a]))
        v_local = int(rng.choice(borders[b]))
        lat = float(latency) * (params.inter_as_latency_per_unit / AS_LATENCY_PER_UNIT)
        cross_edges.append((int(offsets[a] + u_local), int(offsets[b] + v_local), max(lat, 1e-3)))

    return merge_topologies(parts, cross_edges, name=name)
