"""Assignment result objects.

The initial phase produces a :class:`ZoneAssignment` (zone → target server);
the refined phase extends it into a full :class:`Assignment` (additionally,
client → contact server).  Both are immutable and carry only index arrays plus
bookkeeping metadata, so the same assignment can be evaluated against
different problem instances — crucially, an assignment computed from
*estimated* delays is evaluated against the *true* delays in the
measurement-error experiments, and an assignment computed before churn is
evaluated against the post-churn population in the dynamics experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.core.costs import delays_to_targets
from repro.core.problem import CAPInstance

__all__ = ["ZoneAssignment", "Assignment", "server_loads", "zone_server_loads"]


@dataclass(frozen=True, eq=False)
class ZoneAssignment:
    """Result of the initial assignment phase (IAP): zone → target server.

    Attributes
    ----------
    zone_to_server:
        ``(num_zones,)`` server index hosting each zone.
    algorithm:
        Name of the algorithm that produced it (e.g. ``"grez"``).
    capacity_exceeded:
        True when at least one zone could not be placed without exceeding some
        server's capacity and had to be placed best-effort (the paper's
        algorithms assume capacities suffice; this flag makes overload
        explicit instead of silent).
    runtime_seconds:
        Wall-clock time spent computing the assignment.
    """

    zone_to_server: np.ndarray
    algorithm: str = "unknown"
    capacity_exceeded: bool = False
    runtime_seconds: float = 0.0

    def __post_init__(self) -> None:
        arr = np.asarray(self.zone_to_server, dtype=np.int64)
        object.__setattr__(self, "zone_to_server", arr)
        if arr.ndim != 1:
            raise ValueError("zone_to_server must be a 1-D array")
        if arr.size and arr.min() < 0:
            raise ValueError("every zone must be assigned to a server (no -1 entries)")

    @property
    def num_zones(self) -> int:
        """Number of zones covered by this assignment."""
        return int(self.zone_to_server.shape[0])

    def targets_of_clients(self, instance: CAPInstance) -> np.ndarray:
        """Target server of each client under this zone assignment."""
        return self.zone_to_server[instance.client_zones]

    def server_zone_loads(self, instance: CAPInstance) -> np.ndarray:
        """Per-server bandwidth load from hosted zones only (bits/s)."""
        return zone_server_loads(instance, self.zone_to_server)


@dataclass(frozen=True, eq=False)
class Assignment:
    """A complete solution to the CAP: target servers plus contact servers.

    Attributes
    ----------
    zone_to_server:
        ``(num_zones,)`` server hosting each zone (the clients' target servers).
    contact_of_client:
        ``(num_clients,)`` contact server of each client.
    algorithm:
        Composite algorithm name (e.g. ``"grez-grec"``).
    capacity_exceeded:
        True when either phase had to exceed a server capacity (best effort).
    runtime_seconds:
        Total wall-clock time of both phases.
    metadata:
        Free-form side-channel (e.g. the measurement stash of
        :mod:`repro.core.measures`).
    """

    zone_to_server: np.ndarray
    contact_of_client: np.ndarray
    algorithm: str = "unknown"
    capacity_exceeded: bool = False
    runtime_seconds: float = 0.0
    metadata: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        zones = np.asarray(self.zone_to_server, dtype=np.int64)
        contacts = np.asarray(self.contact_of_client, dtype=np.int64)
        object.__setattr__(self, "zone_to_server", zones)
        object.__setattr__(self, "contact_of_client", contacts)
        if zones.ndim != 1 or contacts.ndim != 1:
            raise ValueError("zone_to_server and contact_of_client must be 1-D arrays")
        if zones.size and zones.min() < 0:
            raise ValueError("every zone must be assigned to a server")
        if contacts.size and contacts.min() < 0:
            raise ValueError("every client must have a contact server")

    # ------------------------------------------------------------------ #
    @property
    def num_zones(self) -> int:
        """Number of zones."""
        return int(self.zone_to_server.shape[0])

    @property
    def num_clients(self) -> int:
        """Number of clients."""
        return int(self.contact_of_client.shape[0])

    def targets_of_clients(self, instance: CAPInstance) -> np.ndarray:
        """Target server of each client."""
        return self.zone_to_server[instance.client_zones]

    def client_delays(self, instance: CAPInstance) -> np.ndarray:
        """Per-client communication delay ``d(c, contact) + d(contact, target)`` (ms)."""
        return delays_to_targets(instance, self.zone_to_server, self.contact_of_client)

    def qos_mask(self, instance: CAPInstance) -> np.ndarray:
        """Boolean per-client mask of clients within the delay bound."""
        return self.client_delays(instance) <= instance.delay_bound

    def pqos(self, instance: CAPInstance) -> float:
        """Fraction of clients with QoS (the paper's primary metric)."""
        if instance.num_clients == 0:
            return 1.0
        return float(self.qos_mask(instance).mean())

    def forwarded_mask(self, instance: CAPInstance) -> np.ndarray:
        """Clients whose contact server differs from their target server."""
        return self.contact_of_client != self.targets_of_clients(instance)

    def server_loads(self, instance: CAPInstance) -> np.ndarray:
        """Per-server bandwidth load (bits/s) including forwarding overhead."""
        return server_loads(instance, self.zone_to_server, self.contact_of_client)

    def resource_utilization(self, instance: CAPInstance) -> float:
        """Total consumed bandwidth divided by total capacity (the paper's R)."""
        total_capacity = instance.total_capacity()
        return float(self.server_loads(instance).sum() / total_capacity)

    def is_capacity_feasible(self, instance: CAPInstance, tolerance: float = 1e-6) -> bool:
        """True when no server's load exceeds its capacity (within tolerance)."""
        loads = self.server_loads(instance)
        return bool(np.all(loads <= instance.server_capacities * (1.0 + tolerance)))

    def with_algorithm(self, name: str) -> "Assignment":
        """Copy of this assignment labelled with a different algorithm name."""
        return Assignment(
            zone_to_server=self.zone_to_server,
            contact_of_client=self.contact_of_client,
            algorithm=name,
            capacity_exceeded=self.capacity_exceeded,
            runtime_seconds=self.runtime_seconds,
            metadata=dict(self.metadata),
        )


# ---------------------------------------------------------------------- #
# Load accounting helpers
# ---------------------------------------------------------------------- #
def zone_server_loads(instance: CAPInstance, zone_to_server: np.ndarray) -> np.ndarray:
    """Per-server load (bits/s) from hosting zones (target-server traffic only)."""
    zone_to_server = np.asarray(zone_to_server, dtype=np.int64)
    loads = np.zeros(instance.num_servers, dtype=np.float64)
    zone_demands = instance.zone_demands()
    np.add.at(loads, zone_to_server, zone_demands)
    return loads


def server_loads(
    instance: CAPInstance,
    zone_to_server: np.ndarray,
    contact_of_client: np.ndarray,
) -> np.ndarray:
    """Per-server load including contact-server forwarding overhead (bits/s).

    A server's load is the demand of the zones it hosts plus ``2 * RT(c)`` for
    every client that uses it as a contact server while its target server is a
    different machine (Section 2.1's ``RC`` accounting).
    """
    zone_to_server = np.asarray(zone_to_server, dtype=np.int64)
    contact_of_client = np.asarray(contact_of_client, dtype=np.int64)
    loads = zone_server_loads(instance, zone_to_server)
    targets = zone_to_server[instance.client_zones]
    forwarded = contact_of_client != targets
    if forwarded.any():
        np.add.at(
            loads,
            contact_of_client[forwarded],
            2.0 * instance.client_demands[forwarded],
        )
    return loads
