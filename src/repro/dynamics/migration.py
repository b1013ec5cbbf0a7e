"""Zone migration cost model: what re-hosting a zone actually costs.

The paper's re-execution experiments treat a new assignment as free — the old
and new zone→server maps are compared only through the resulting pQoS.  In a
running DVE, moving a zone between servers is a *state transfer*: every object
and avatar in the zone must be serialised, shipped and re-materialised, and
the zone is typically frozen (no interactions processed) while that happens.
The cost is therefore proportional to the migrated zone's population.

:class:`MigrationCostModel` makes that explicit with a configurable per-client
transfer cost and per-client / per-zone freeze times;
:func:`count_zone_migrations` diffs two zone→server maps (optionally across a
server fleet change, where zones hosted on a departed server migrate by
force); the simulation engine charges every adopted assignment through
:meth:`MigrationCostModel.charge` and streams the result in each
:class:`~repro.dynamics.engine.EpochRecord`, so policies can be compared on
interactivity *and* disruption from the CSV alone.

The default model is free (all rates zero), which keeps the paper's semantics
and the pre-elastic behaviour of every experiment bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

__all__ = [
    "MigrationCostModel",
    "MigrationCharge",
    "count_zone_migrations",
    "charge_zone_moves",
]


@dataclass(frozen=True)
class MigrationCharge:
    """The disruption bill of adopting one assignment after churn.

    Attributes
    ----------
    zones_migrated:
        Zones whose hosting server changed (including forced evacuations off
        departed servers).
    clients_migrated:
        Total post-churn population of those zones — the volume of avatar /
        object state actually transferred.
    cost:
        ``clients_migrated × cost_per_client`` in the operator's cost units.
    freeze_ms:
        Total zone-freeze time implied by the transfers (milliseconds).
    """

    zones_migrated: int
    clients_migrated: int
    cost: float
    freeze_ms: float

    #: The free charge (no zones moved) — shared by the fast paths.
    ZERO: ClassVar["MigrationCharge"]


MigrationCharge.ZERO = MigrationCharge(0, 0, 0.0, 0.0)


@dataclass(frozen=True)
class MigrationCostModel:
    """Configurable price of moving zones between servers.

    Attributes
    ----------
    cost_per_client:
        State-transfer cost per migrated client (arbitrary operator units —
        e.g. MB shipped, or dollars).  0 keeps migrations free.
    freeze_ms_per_client:
        Zone freeze time contributed by each migrated client (serialisation /
        transfer of its avatar state), in milliseconds.
    freeze_ms_per_zone:
        Fixed freeze overhead per migrated zone (handover coordination),
        in milliseconds.
    """

    cost_per_client: float = 0.0
    freeze_ms_per_client: float = 0.0
    freeze_ms_per_zone: float = 0.0

    def __post_init__(self) -> None:
        for name in ("cost_per_client", "freeze_ms_per_client", "freeze_ms_per_zone"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def charge(self, zones_migrated: int, clients_migrated: int) -> MigrationCharge:
        """Price a migration of ``zones_migrated`` zones / ``clients_migrated`` clients."""
        if zones_migrated == 0:
            return MigrationCharge.ZERO
        return MigrationCharge(
            zones_migrated=int(zones_migrated),
            clients_migrated=int(clients_migrated),
            cost=self.cost_per_client * clients_migrated,
            freeze_ms=(
                self.freeze_ms_per_zone * zones_migrated
                + self.freeze_ms_per_client * clients_migrated
            ),
        )


def count_zone_migrations(
    old_zone_to_server: np.ndarray,
    new_zone_to_server: np.ndarray,
    zone_populations: np.ndarray,
    server_old_to_new: Optional[np.ndarray] = None,
) -> tuple[int, int]:
    """Count the zones (and their resident clients) that change hosting server.

    ``old_zone_to_server`` is expressed in *pre-churn* server indices; when
    the fleet itself churned, ``server_old_to_new`` translates it into the
    post-churn index space first, and zones whose old host departed (mapped
    to ``-1``) count as migrated no matter where they land — their state has
    to move somewhere.  ``zone_populations`` must be the *post-churn* per-zone
    population (that is the state volume actually transferred).

    Returns
    -------
    tuple
        ``(zones_migrated, clients_migrated)``.
    """
    old_zone_to_server = np.asarray(old_zone_to_server, dtype=np.int64)
    new_zone_to_server = np.asarray(new_zone_to_server, dtype=np.int64)
    if old_zone_to_server.shape != new_zone_to_server.shape:
        raise ValueError("old and new zone maps must have the same shape")
    if server_old_to_new is not None:
        server_old_to_new = np.asarray(server_old_to_new, dtype=np.int64)
        mapped = server_old_to_new[old_zone_to_server]
    else:
        mapped = old_zone_to_server
    moved = mapped != new_zone_to_server
    zones_migrated = int(moved.sum())
    if zones_migrated == 0:
        return 0, 0
    return zones_migrated, int(np.asarray(zone_populations)[moved].sum())


def charge_zone_moves(
    model: MigrationCostModel,
    old_zone_to_server: np.ndarray,
    new_zone_to_server: np.ndarray,
    zone_populations: np.ndarray,
    server_old_to_new: Optional[np.ndarray] = None,
) -> MigrationCharge:
    """Bill a zone-map change under a cost model (count + price in one call).

    The single billing entry point shared by the simulation engine and the
    rebalance controller, so their migration semantics can never diverge.
    """
    zones, clients = count_zone_migrations(
        old_zone_to_server,
        new_zone_to_server,
        zone_populations,
        server_old_to_new=server_old_to_new,
    )
    return model.charge(zones, clients)
