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
from repro.topology.graph import Topology
from repro.topology.waxman import PLANE_SIZE as ROUTER_PLANE_SIZE
from repro.topology.waxman import _waxman_stack
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

    # 2. Per-AS router graphs, drawn as one stack and positioned around the
    # AS centres.
    routers = params.routers_per_as
    positions, edges, latencies = _waxman_stack(routers, router_rngs)
    positions = positions - ROUTER_PLANE_SIZE / 2.0 + as_level.positions[:, None, :]

    # 3. Stitch domains together along AS-level edges via border routers.
    n_border = min(BORDER_ROUTERS_PER_AS, routers)
    borders = [rng.choice(routers, size=n_border, replace=False) for _ in range(params.num_as)]

    cross_edges: list[tuple[int, int]] = []
    for a, b in as_level.edges.tolist():
        # ``choice`` of a 1-D array is ``a[integers(0, a.size)]``: same draw, same state.
        u_local = int(borders[a][rng.integers(0, n_border)])
        v_local = int(borders[b][rng.integers(0, n_border)])
        cross_edges.append((a * routers + u_local, b * routers + v_local))
    # AS-level latency already encodes the inter-domain distance; rescale it
    # by the configured factor relative to the BA generator's default.
    cross_latencies = [
        max(latency * (params.inter_as_latency_per_unit / AS_LATENCY_PER_UNIT), 1e-3)
        for latency in as_level.latencies.tolist()
    ]

    # Connected by construction: the AS-level BA graph is connected, each
    # Waxman domain is, and every AS-level edge is realised.  The all-pairs
    # pass raises TopologyError on a disconnected graph regardless.
    return Topology(
        positions=positions.reshape(-1, 2),
        edges=np.concatenate([edges, np.array(cross_edges, dtype=np.int64).reshape(-1, 2)]),
        latencies=np.concatenate([latencies, np.array(cross_latencies, dtype=np.float64)]),
        node_domain=np.repeat(np.arange(params.num_as, dtype=np.int64), routers),
        name=name,
    )
