"""Client population model.

A client is characterised by two coordinates: its *physical* location (the
topology node it connects from) and its *virtual* location (the zone its
avatar currently occupies).  :class:`ClientPopulation` stores both as parallel
arrays and provides the join / leave / move transformations needed by the DVE
dynamics experiments (Table 3 of the paper).

All transformations return new populations (the arrays are copied), so an
assignment computed against one snapshot can be evaluated against a later
snapshot without aliasing surprises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ClientPopulation"]


@dataclass(frozen=True)
class ClientPopulation:
    """A snapshot of the clients participating in the DVE.

    Attributes
    ----------
    nodes:
        ``(num_clients,)`` topology node index of each client (physical world).
    zones:
        ``(num_clients,)`` zone index of each client's avatar (virtual world).
    """

    nodes: np.ndarray
    zones: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=np.int64))
        object.__setattr__(self, "zones", np.asarray(self.zones, dtype=np.int64))
        if self.nodes.ndim != 1 or self.zones.ndim != 1:
            raise ValueError("nodes and zones must be 1-D arrays")
        if self.nodes.shape != self.zones.shape:
            raise ValueError(
                f"nodes and zones must be parallel arrays, got {self.nodes.shape} "
                f"and {self.zones.shape}"
            )
        if self.nodes.size and self.nodes.min() < 0:
            raise ValueError("node indices must be non-negative")
        if self.zones.size and self.zones.min() < 0:
            raise ValueError("zone indices must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def num_clients(self) -> int:
        """Number of clients in this snapshot."""
        return int(self.nodes.shape[0])

    def zone_populations(self, num_zones: int) -> np.ndarray:
        """Number of clients per zone (length ``num_zones``)."""
        if self.zones.size and self.zones.max() >= num_zones:
            raise ValueError("population contains zone ids >= num_zones")
        return np.bincount(self.zones, minlength=num_zones).astype(np.int64)

    # ------------------------------------------------------------------ #
    # Churn transformations
    # ------------------------------------------------------------------ #
    def with_joined(self, nodes: np.ndarray, zones: np.ndarray) -> "ClientPopulation":
        """Return a new population with extra clients appended."""
        nodes = np.asarray(nodes, dtype=np.int64)
        zones = np.asarray(zones, dtype=np.int64)
        if nodes.shape != zones.shape:
            raise ValueError("joined nodes and zones must have matching shapes")
        return ClientPopulation(
            nodes=np.concatenate([self.nodes, nodes]),
            zones=np.concatenate([self.zones, zones]),
        )

    def with_moved(self, client_indices: np.ndarray, new_zones: np.ndarray) -> "ClientPopulation":
        """Return a new population where the given clients moved to new zones."""
        idx = np.asarray(client_indices, dtype=np.int64)
        new_zones = np.asarray(new_zones, dtype=np.int64)
        if idx.shape != new_zones.shape:
            raise ValueError("client_indices and new_zones must have matching shapes")
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_clients):
            raise ValueError("client indices to move are out of range")
        zones = self.zones.copy()
        zones[idx] = new_zones
        return ClientPopulation(nodes=self.nodes.copy(), zones=zones)

    # ------------------------------------------------------------------ #
    def subset(self, client_indices: np.ndarray) -> "ClientPopulation":
        """Population restricted to the given client indices (in that order)."""
        idx = np.asarray(client_indices, dtype=np.int64)
        return ClientPopulation(nodes=self.nodes[idx], zones=self.zones[idx])
