"""Server set model: placement nodes and bandwidth capacities.

The paper measures server resource consumption by network bandwidth usage
("the network bandwidth often represents the major operating cost in current
server-based MMOGs") and parameterises experiments with the *total* system
capacity plus a minimum per-server capacity ("the minimum bandwidth capacity
of server is 10 Mbps, and the total capacity of the system is 500 Mbps").

:class:`ServerSet` stores, per server, the topology node it sits on and its
bandwidth capacity in bits per second.  Capacities are heterogeneous: every
server gets the minimum and the remainder is split with random proportions,
mirroring a rented, heterogeneous server fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["ServerSet", "allocate_capacities", "MBPS"]

#: Bits per second in one Mbps.
MBPS = 1_000_000.0


@dataclass(frozen=True)
class ServerSet:
    """The geographically distributed server fleet.

    Attributes
    ----------
    nodes:
        ``(num_servers,)`` topology node index of each server.
    capacities:
        ``(num_servers,)`` bandwidth capacity of each server in bits/s.
    """

    nodes: np.ndarray
    capacities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=np.int64))
        object.__setattr__(self, "capacities", np.asarray(self.capacities, dtype=np.float64))
        if self.nodes.ndim != 1:
            raise ValueError("nodes must be a 1-D array")
        if self.nodes.size and self.nodes.min() < 0:
            # Negative indices would silently wrap in every delay-matrix
            # gather; the upper bound is checked against the topology by the
            # scenario layer (the server set itself does not know it).
            raise ValueError("server nodes must be non-negative topology indices")
        if self.capacities.shape != self.nodes.shape:
            raise ValueError("capacities must have one entry per server")
        if self.num_servers == 0:
            raise ValueError("a ServerSet needs at least one server")
        if (self.capacities <= 0).any():
            raise ValueError("all server capacities must be positive")

    @property
    def num_servers(self) -> int:
        """Number of servers."""
        return int(self.nodes.shape[0])

    @property
    def total_capacity(self) -> float:
        """Total system capacity in bits/s."""
        return float(self.capacities.sum())

    @property
    def total_capacity_mbps(self) -> float:
        """Total system capacity in Mbps."""
        return self.total_capacity / MBPS



def allocate_capacities(
    num_servers: int,
    total_capacity_mbps: float,
    min_capacity_mbps: float = 10.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Allocate per-server capacities (bits/s) summing to the total capacity.

    Parameters
    ----------
    num_servers:
        Number of servers.
    total_capacity_mbps:
        Total system bandwidth capacity in Mbps (paper default 500).
    min_capacity_mbps:
        Minimum per-server capacity in Mbps (paper default 10).  Each server
        gets the minimum plus a random share of the remainder, the shares
        drawn from a flat Dirichlet distribution.
    seed:
        RNG for the shares.

    Returns
    -------
    numpy.ndarray
        ``(num_servers,)`` capacities in bits per second.
    """
    if num_servers < 1:
        raise ValueError("num_servers must be >= 1")
    check_positive(total_capacity_mbps, "total_capacity_mbps")
    check_non_negative(min_capacity_mbps, "min_capacity_mbps")
    if min_capacity_mbps * num_servers > total_capacity_mbps + 1e-9:
        raise ValueError(
            f"total capacity {total_capacity_mbps} Mbps cannot cover the minimum "
            f"{min_capacity_mbps} Mbps for each of {num_servers} servers"
        )

    remainder = total_capacity_mbps - min_capacity_mbps * num_servers
    shares = as_generator(seed).dirichlet(np.ones(num_servers))
    return (min_capacity_mbps + shares * remainder) * MBPS
