"""Virtual world model: the zone-partitioned shared world.

The paper's DVE follows the "zone-based approach": the virtual world is
spatially partitioned into ``n`` distinct zones, each managed by exactly one
server; a client only interacts with clients in the same zone and may move to
other zones over time.  Nothing in the model depends on how the zones are laid
out, so :class:`VirtualWorld` holds only their number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VirtualWorld"]


@dataclass(frozen=True)
class VirtualWorld:
    """A zone-partitioned virtual world of ``num_zones`` distinct zones."""

    num_zones: int

    def __post_init__(self) -> None:
        if self.num_zones < 1:
            raise ValueError(f"num_zones must be >= 1, got {self.num_zones}")

    def zone_populations(self, client_zones: np.ndarray) -> np.ndarray:
        """Number of clients currently in each zone.

        Parameters
        ----------
        client_zones:
            ``(num_clients,)`` zone index per client.
        """
        client_zones = np.asarray(client_zones, dtype=np.int64)
        if client_zones.size and (
            client_zones.min() < 0 or client_zones.max() >= self.num_zones
        ):
            raise ValueError("client_zones contains zone ids outside the virtual world")
        return np.bincount(client_zones, minlength=self.num_zones).astype(np.int64)
