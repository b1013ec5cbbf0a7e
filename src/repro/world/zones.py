"""Virtual world model: the zone-partitioned shared world.

The paper's DVE follows the "zone-based approach": the virtual world is
spatially partitioned into ``n`` distinct zones, each managed by exactly one
server; a client only interacts with clients in the same zone and may move to
other zones over time.

:class:`VirtualWorld` models the zones as a rectangular grid (the standard
layout for zoned MMOG worlds) which provides a zone-adjacency structure used
by the dynamics substrate when simulating avatar movement between zones.  The
assignment algorithms themselves only care about the number of zones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

__all__ = ["VirtualWorld"]


def _grid_shape(num_zones: int) -> Tuple[int, int]:
    """Choose a near-square (rows, cols) factorisation with rows*cols >= num_zones."""
    rows = int(np.floor(np.sqrt(num_zones)))
    while rows > 1 and num_zones % rows != 0:
        rows -= 1
    cols = num_zones // rows
    if rows * cols < num_zones:
        cols += 1
    return rows, cols


@dataclass(frozen=True)
class VirtualWorld:
    """A zone-partitioned virtual world laid out as a grid.

    Attributes
    ----------
    num_zones:
        Number of distinct zones.
    rows, cols:
        Grid layout; ``rows * cols >= num_zones`` and zones are numbered
        row-major.  Cells beyond ``num_zones`` (for non-rectangular counts) do
        not exist.
    """

    num_zones: int
    rows: int = field(default=0)
    cols: int = field(default=0)

    def __post_init__(self) -> None:
        if self.num_zones < 1:
            raise ValueError(f"num_zones must be >= 1, got {self.num_zones}")
        if self.rows <= 0 or self.cols <= 0:
            rows, cols = _grid_shape(self.num_zones)
            object.__setattr__(self, "rows", rows)
            object.__setattr__(self, "cols", cols)
        if self.rows * self.cols < self.num_zones:
            raise ValueError(
                f"grid {self.rows}x{self.cols} cannot hold {self.num_zones} zones"
            )

    # ------------------------------------------------------------------ #
    def zone_coordinates(self, zone: int) -> Tuple[int, int]:
        """(row, col) grid coordinates of a zone."""
        self._check_zone(zone)
        return divmod(zone, self.cols)

    def neighbors(self, zone: int) -> List[int]:
        """Zones adjacent (4-neighbourhood) to ``zone`` in the grid layout.

        Used by the churn generator to model avatars crossing zone borders.
        Returns an empty list only for a single-zone world.
        """
        row, col = self.zone_coordinates(zone)
        result: List[int] = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if 0 <= r < self.rows and 0 <= c < self.cols:
                z = r * self.cols + c
                if z < self.num_zones:
                    result.append(z)
        return result

    def all_zones(self) -> np.ndarray:
        """Array ``[0, 1, ..., num_zones - 1]``."""
        return np.arange(self.num_zones)

    # ------------------------------------------------------------------ #
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

    def _check_zone(self, zone: int) -> None:
        if not (0 <= zone < self.num_zones):
            raise ValueError(f"zone {zone} outside [0, {self.num_zones - 1}]")
