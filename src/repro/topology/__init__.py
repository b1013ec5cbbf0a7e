"""Network topology substrate.

Provides the Internet-like graphs on which the DVE's servers and clients live:

* :mod:`repro.topology.graph` — the :class:`~repro.topology.graph.Topology`
  container and all-pairs delay computation.
* :mod:`repro.topology.waxman`, :mod:`repro.topology.barabasi_albert`,
  :mod:`repro.topology.hierarchical`, :mod:`repro.topology.brite` — BRITE-like
  synthetic topology generators (the paper's simulation substrate).
* :mod:`repro.topology.delays` — the round-trip delay model (500 ms max RTT,
  50 % discounted inter-server mesh).
* :mod:`repro.topology.delay_backends` — the dense / sparse delay backends
  and the sparse backend's compact client×server delay representation.
* :mod:`repro.topology.placement` — server / client placement onto nodes.
"""

from repro.topology.barabasi_albert import barabasi_albert_topology
from repro.topology.brite import BriteConfig, generate_topology
from repro.topology.delay_backends import (
    DEFAULT_DELAY_BACKEND,
    DEFAULT_SPARSE_TOP_K,
    DELAY_BACKENDS,
    SPARSE_FILL_DELAY_MS,
    CompactDelayMatrix,
)
from repro.topology.delays import MAX_RTT_MS, SERVER_MESH_FACTOR, DelayModel
from repro.topology.graph import Topology, TopologyError
from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.placement import (
    place_clients_clustered,
    place_clients_uniform,
    place_servers,
)

__all__ = [
    "Topology",
    "TopologyError",
    "barabasi_albert_topology",
    "HierarchicalParams",
    "hierarchical_topology",
    "BriteConfig",
    "generate_topology",
    "DelayModel",
    "MAX_RTT_MS",
    "SERVER_MESH_FACTOR",
    "DELAY_BACKENDS",
    "DEFAULT_DELAY_BACKEND",
    "DEFAULT_SPARSE_TOP_K",
    "SPARSE_FILL_DELAY_MS",
    "CompactDelayMatrix",
    "place_servers",
    "place_clients_uniform",
    "place_clients_clustered",
]
