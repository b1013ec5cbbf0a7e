"""DVE world model: servers, zones, clients, bandwidth and scenario assembly.

This package turns the paper's Section 4.1 simulation parameters into concrete
immutable objects:

* :class:`~repro.world.servers.ServerSet` — geographically distributed servers
  with bandwidth capacities.
* :class:`~repro.world.zones.VirtualWorld` — the zone-partitioned world.
* :class:`~repro.world.clients.ClientPopulation` — clients' physical nodes and
  avatar zones.
* :func:`~repro.world.bandwidth.client_target_demands` — the quadratic
  client-server bandwidth model.
* :mod:`repro.world.distributions` / :mod:`repro.world.correlation` — uniform /
  clustered client distributions and the physical↔virtual correlation delta.
* :class:`~repro.world.scenario.DVEScenario` — everything assembled, ready for
  the assignment algorithms in :mod:`repro.core`.
"""

from repro.world.bandwidth import STREAM_BPS, client_target_demands
from repro.world.clients import ClientPopulation
from repro.world.correlation import RegionZoneMap, correlated_zone_choice
from repro.world.distributions import (
    DISTRIBUTION_TYPES,
    DistributionSpec,
    distribution_type,
    sample_client_nodes,
    sample_client_zones,
    zone_weights,
)
from repro.world.federation import (
    FederatedWorld,
    build_federation,
    equal_slices,
    split_client_counts,
)
from repro.world.scenario import DVEConfig, DVEScenario, build_scenario
from repro.world.servers import MBPS, ServerSet, allocate_capacities
from repro.world.zones import VirtualWorld

__all__ = [
    "STREAM_BPS",
    "client_target_demands",
    "ClientPopulation",
    "RegionZoneMap",
    "correlated_zone_choice",
    "DistributionSpec",
    "DISTRIBUTION_TYPES",
    "distribution_type",
    "zone_weights",
    "sample_client_nodes",
    "sample_client_zones",
    "DVEConfig",
    "DVEScenario",
    "build_scenario",
    "ServerSet",
    "allocate_capacities",
    "MBPS",
    "VirtualWorld",
    "FederatedWorld",
    "build_federation",
    "equal_slices",
    "split_client_counts",
]
