"""Two-level hierarchical (BRITE-style) Internet topology generator.

The paper's simulation substrate is "an Internet-like hierarchical topology
generated by BRITE [consisting] of 500 nodes with 20 AS domains using the
Barabási–Albert model and 25 nodes using the Waxman model for each AS".

This module reproduces that construction:

1. An AS-level graph over ``num_as`` domains is generated with the
   Barabási–Albert model; each AS has a centre position in a large plane.
2. Inside each AS, ``routers_per_as`` router nodes are generated with the
   Waxman model in a small square centred on the AS position.
3. Every AS-level edge is realised by a physical link between one randomly
   chosen border router in each of the two domains; its latency is the
   distance between the AS centres times the inter-domain latency factor.

The result is a single connected :class:`Topology` whose nodes carry their AS
id in ``node_domain`` (used later by the physical↔virtual correlation model).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.barabasi_albert import LATENCY_PER_UNIT as AS_LATENCY_PER_UNIT
from repro.topology.barabasi_albert import barabasi_albert_topology
from repro.topology.graph import Topology, merge_topologies
from repro.topology.waxman import PLANE_SIZE as ROUTER_PLANE_SIZE
from repro.topology.waxman import _waxman_arrays
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.utils.validation import check_positive

__all__ = ["HierarchicalParams", "hierarchical_topology"]

#: Border routers per AS that carry its inter-domain links.
BORDER_ROUTERS_PER_AS = 3


@dataclass(frozen=True)
class HierarchicalParams:
    """Parameters for the two-level hierarchical generator.

    Defaults follow the paper: 20 AS domains × 25 routers = 500 nodes.
    """

    num_as: int = 20
    routers_per_as: int = 25
    inter_as_latency_per_unit: float = 0.05

    def __post_init__(self) -> None:
        if self.num_as < 1:
            raise ValueError(f"num_as must be >= 1, got {self.num_as}")
        if self.routers_per_as < 1:
            raise ValueError(f"routers_per_as must be >= 1, got {self.routers_per_as}")
        check_positive(self.inter_as_latency_per_unit, "inter_as_latency_per_unit")


def hierarchical_topology(
    params: HierarchicalParams | None = None,
    seed: SeedLike = None,
    name: str = "brite-hierarchical",
) -> Topology:
    """Generate a BRITE-style two-level hierarchical topology.

    Returns a connected topology of ``num_as * routers_per_as`` nodes whose
    ``node_domain`` records each router's AS.
    """
    params = params or HierarchicalParams()
    rng = as_generator(seed)
    as_rng, *router_rngs = spawn_generators(rng, params.num_as + 1)

    # 1. AS-level backbone.
    as_level = barabasi_albert_topology(params.num_as, seed=as_rng, name="as-level")

    # 2. Per-AS router graphs, positioned around the AS centre.
    parts: list[Topology] = []
    for as_id in range(params.num_as):
        positions, edges, latencies = _waxman_arrays(params.routers_per_as, router_rngs[as_id])
        centre = as_level.positions[as_id]
        parts.append(
            Topology(
                positions=positions - ROUTER_PLANE_SIZE / 2.0 + centre,
                edges=edges,
                latencies=latencies,
                node_domain=np.full(params.routers_per_as, as_id, dtype=np.int64),
                name=f"as-{as_id}",
            )
        )

    # 3. Stitch domains together along AS-level edges via border routers.
    offsets = np.cumsum([0] + [p.num_nodes for p in parts[:-1]])
    borders: dict[int, np.ndarray] = {}
    for as_id in range(params.num_as):
        n_border = min(BORDER_ROUTERS_PER_AS, params.routers_per_as)
        borders[as_id] = rng.choice(params.routers_per_as, size=n_border, replace=False)

    cross_edges: list[tuple[int, int, float]] = []
    for (a, b), latency in zip(as_level.edges, as_level.latencies):
        a, b = int(a), int(b)
        # ``choice`` of a 1-D array is ``a[integers(0, a.size)]``: same draw, same state.
        u_local = int(borders[a][rng.integers(0, borders[a].size)])
        v_local = int(borders[b][rng.integers(0, borders[b].size)])
        u = int(offsets[a] + u_local)
        v = int(offsets[b] + v_local)
        # AS-level latency already encodes the inter-domain distance; rescale it
        # by the configured factor relative to the BA generator's default.
        lat = float(latency) * (
            params.inter_as_latency_per_unit / AS_LATENCY_PER_UNIT
        )
        cross_edges.append((u, v, max(lat, 1e-3)))

    topology = merge_topologies(parts, cross_edges, name=name)
    if not topology.is_connected():
        # The AS-level BA graph is always connected and every AS-level edge is
        # realised, so this should never trigger; keep it as a hard guarantee.
        raise RuntimeError("hierarchical topology generation produced a disconnected graph")
    return topology
