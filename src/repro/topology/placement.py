"""Placement of servers and clients onto topology nodes.

The paper selects both the clients' and servers' physical locations "randomly
among these 500 nodes", and additionally studies *clustered* physical-world
distributions where "some nodes in the network topology are randomly selected
to have a larger number of clients than the rest" (Section 4.2, Figure 6).

Two placement flavours are provided:

* :func:`place_servers` — distinct random nodes, one per server (optionally
  spread across distinct AS domains so the geographic distribution is
  realistic).
* :func:`place_clients_uniform` / :func:`place_clients_clustered` — node
  choices for each client, uniform or with a configurable fraction of clients
  concentrated on a few hotspot nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.graph import Topology
from repro.utils.distinct import sorted_distinct
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_probability

__all__ = [
    "ClusteredPlacementParams",
    "place_servers",
    "place_clients_uniform",
    "place_clients_clustered",
]


@dataclass(frozen=True)
class ClusteredPlacementParams:
    """Parameters of the clustered physical-world client distribution.

    ``num_hotspots`` nodes are selected uniformly at random; a fraction
    ``hotspot_fraction`` of all clients is placed on those nodes (spread
    uniformly among them, i.e. each hotspot node receives roughly
    ``hotspot_fraction / num_hotspots`` of the population, about 10× the mass
    of a non-hotspot node for the defaults), the remaining clients are placed
    uniformly over all other nodes.
    """

    num_hotspots: int = 10
    hotspot_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.num_hotspots < 1:
            raise ValueError("num_hotspots must be >= 1")
        check_probability(self.hotspot_fraction, "hotspot_fraction")


def place_servers(
    topology: Topology,
    num_servers: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Choose distinct topology nodes for the servers.

    When the topology has at least as many domains as servers, one server is
    placed in each of ``num_servers`` distinct domains (at a random node of
    that domain); otherwise nodes are drawn uniformly without replacement.
    The paper places servers at random nodes; spreading them across AS domains
    is the realistic interpretation of a *geographically distributed* server
    architecture.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    if num_servers > topology.num_nodes:
        raise ValueError(
            f"cannot place {num_servers} servers on {topology.num_nodes} nodes"
        )
    rng = as_generator(seed)
    if topology.node_domain is not None and topology.num_domains >= num_servers:
        domains = rng.choice(
            sorted_distinct(topology.node_domain), size=num_servers, replace=False
        )
        nodes = np.array(
            [int(rng.choice(topology.domain_nodes(int(d)))) for d in domains],
            dtype=np.int64,
        )
        return nodes
    return rng.choice(topology.num_nodes, size=num_servers, replace=False).astype(np.int64)


def place_clients_uniform(
    topology: Topology,
    num_clients: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Place clients uniformly at random over topology nodes (with replacement).

    Clients may share nodes with servers, as in the paper.
    """
    if num_clients < 0:
        raise ValueError("num_clients must be >= 0")
    rng = as_generator(seed)
    return rng.choice(topology.num_nodes, size=num_clients, replace=True).astype(np.int64)


def place_clients_clustered(
    topology: Topology,
    num_clients: int,
    params: ClusteredPlacementParams | None = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """Place clients with a clustered physical-world distribution.

    A set of hotspot nodes receives ``hotspot_fraction`` of the population;
    the remainder is uniform over all nodes.  Returns the node index of each
    client.
    """
    if num_clients < 0:
        raise ValueError("num_clients must be >= 0")
    params = params or ClusteredPlacementParams()
    rng = as_generator(seed)
    num_hot = min(params.num_hotspots, topology.num_nodes)
    hotspots = rng.choice(topology.num_nodes, size=num_hot, replace=False)
    nodes = np.empty(num_clients, dtype=np.int64)
    in_hotspot = rng.random(num_clients) < params.hotspot_fraction
    n_hot_clients = int(in_hotspot.sum())
    nodes[in_hotspot] = rng.choice(hotspots, size=n_hot_clients, replace=True)
    nodes[~in_hotspot] = rng.choice(
        topology.num_nodes, size=num_clients - n_hot_clients, replace=True
    )
    return nodes
