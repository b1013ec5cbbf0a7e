"""Federated multi-shard worlds: several DVE scenarios on one substrate.

Production DVE operators run many independent worlds ("shards") on a shared
network topology and a shared server fleet.  The paper's CAP formulation
assigns one DVE's zones to one fleet; this module generalises the world layer
to that multi-tenant shape without copying the expensive substrate:

* every shard is an ordinary :class:`~repro.world.scenario.DVEScenario` —
  its own zones, clients, demands and assignments — so the whole solver /
  dynamics stack works on it unchanged;
* all shards share **one** :class:`~repro.topology.graph.Topology` and **one**
  :class:`~repro.topology.delays.DelayModel` *by identity* (the all-pairs RTT
  matrix is the dominant memory cost and is computed exactly once);
* all shards see the same fleet **nodes**, but each server's capacity is
  partitioned into per-shard *slices* — shard ``s`` sees server ``i`` with
  capacity ``slices[s, i]``, and the slices of each server sum to its full
  capacity (conservation).  Cross-shard capacity arbitration
  (:mod:`repro.core.arbitration`) moves capacity between shards by re-slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.topology.delays import DelayModel
from repro.topology.graph import Topology
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.scenario import DVEConfig, DVEScenario, _build_substrate, build_scenario
from repro.world.servers import ServerSet

__all__ = [
    "FederatedWorld",
    "build_federation",
    "equal_slices",
    "split_client_counts",
]

#: Relative tolerance for the per-server capacity-conservation check.
_CONSERVATION_RTOL = 1e-9


def equal_slices(capacities: np.ndarray, num_shards: int) -> np.ndarray:
    """Split every server's capacity evenly across ``num_shards`` shards.

    Columns sum back to the full capacities up to round-off; the first shard
    absorbs the residual so the sum is as close to exact as one float add
    allows.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    capacities = np.asarray(capacities, dtype=np.float64)
    fractions = np.full(num_shards, 1.0 / num_shards)
    slices = fractions[:, None] * capacities[None, :]
    slices[0] += capacities - slices.sum(axis=0)
    return slices


def split_client_counts(
    total_clients: int, num_shards: int, weights: Optional[Sequence[float]] = None
) -> list[int]:
    """Partition a client population across shards (largest-remainder rounding).

    With no weights the split is as even as possible; with weights each shard
    gets a share proportional to its weight.  Counts always sum to
    ``total_clients`` exactly.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if total_clients < 0:
        raise ValueError("total_clients must be >= 0")
    w = np.ones(num_shards) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (num_shards,):
        raise ValueError(f"weights must have shape ({num_shards},), got {w.shape}")
    if (w <= 0).any():
        raise ValueError("every shard weight must be positive")
    exact = total_clients * w / w.sum()
    counts = np.floor(exact).astype(np.int64)
    remainder = total_clients - int(counts.sum())
    if remainder:
        # Hand the leftover clients to the shards with the largest fractional
        # parts (stable ties → lower shard index wins).
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:remainder]] += 1
    return [int(c) for c in counts]


@dataclass(frozen=True)
class FederatedWorld:
    """N DVE shards sharing one topology, one delay model and one fleet.

    Attributes
    ----------
    topology / delay_model:
        The shared substrate.  Every shard references these *objects* — the
        all-pairs RTT matrix exists once, no matter how many shards run on it.
    servers:
        The full fleet: nodes and *total* per-server capacities.
    shards:
        One :class:`~repro.world.scenario.DVEScenario` per shard.  Shard ``s``
        sees the fleet's nodes with capacities ``slices[s]``.
    slices:
        ``(num_shards, num_servers)`` per-shard capacity slices (bits/s);
        every column sums to the corresponding full server capacity.
    """

    topology: Topology
    delay_model: DelayModel
    servers: ServerSet
    shards: tuple[DVEScenario, ...]
    slices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        slices = np.asarray(self.slices, dtype=np.float64)
        object.__setattr__(self, "slices", slices)
        num_shards = len(self.shards)
        if num_shards < 1:
            raise ValueError("a FederatedWorld needs at least one shard")
        if slices.shape != (num_shards, self.servers.num_servers):
            raise ValueError(
                f"slices must have shape ({num_shards}, {self.servers.num_servers}), "
                f"got {slices.shape}"
            )
        if (slices <= 0).any():
            raise ValueError("every capacity slice must be strictly positive")
        if not np.allclose(
            slices.sum(axis=0), self.servers.capacities, rtol=_CONSERVATION_RTOL, atol=0.0
        ):
            raise ValueError(
                "capacity conservation violated: per-server slices must sum to the "
                "full server capacities"
            )
        for i, shard in enumerate(self.shards):
            if shard.topology is not self.topology:
                raise ValueError(f"shard {i} does not share the federation's topology")
            if shard.delay_model is not self.delay_model:
                raise ValueError(f"shard {i} does not share the federation's delay model")
            if not np.array_equal(shard.servers.nodes, self.servers.nodes):
                raise ValueError(f"shard {i} does not run on the federation's fleet nodes")
            if not np.array_equal(shard.servers.capacities, slices[i]):
                raise ValueError(f"shard {i}'s capacities do not match its slice")

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def num_servers(self) -> int:
        """Number of servers in the shared fleet."""
        return self.servers.num_servers


def build_federation(
    config: Optional[DVEConfig] = None,
    num_shards: int = 1,
    seed: SeedLike = None,
    client_weights: Optional[Sequence[float]] = None,
) -> FederatedWorld:
    """Materialise a :class:`FederatedWorld` from one base configuration.

    Parameters
    ----------
    config:
        The base :class:`~repro.world.scenario.DVEConfig` (paper defaults when
        omitted).  It supplies the shared substrate — topology parameters,
        fleet size and total capacity — and every shard's world: the base
        population is split across the shards, each shard keeping the base
        zone count (shards are independent worlds).
    num_shards:
        Number of shards.
    seed:
        Master seed; sub-streams for the topology, server placement, capacity
        allocation and each shard's client sampling are derived from it
        deterministically.
    client_weights:
        Optional per-shard weights for splitting the base population — a
        skewed federation is the interesting case for demand-aware
        arbitration.

    Every shard starts with an equal slice of every server.
    """
    base = config or DVEConfig()
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    counts = split_client_counts(base.num_clients, num_shards, weights=client_weights)

    rng = as_generator(seed)
    topo_rng, server_rng, capacity_rng, *shard_rngs = spawn_generators(rng, 3 + num_shards)
    topology, delay_model, fleet = _build_substrate(base, topo_rng, server_rng, capacity_rng)
    slices = equal_slices(fleet.capacities, num_shards)

    shards = tuple(
        build_scenario(
            base.with_updates(num_clients=counts[i]),
            seed=shard_rngs[i],
            topology=topology,
            delay_model=delay_model,
            servers=ServerSet(nodes=fleet.nodes, capacities=slices[i]),
        )
        for i in range(num_shards)
    )
    return FederatedWorld(
        topology=topology,
        delay_model=delay_model,
        servers=fleet,
        shards=shards,
        slices=slices,
    )
