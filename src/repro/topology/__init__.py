"""Network topology substrate.

Provides the Internet-like graphs on which the DVE's servers and clients live:

* :mod:`repro.topology.graph` — the :class:`~repro.topology.graph.Topology`
  container and all-pairs delay computation.
* :mod:`repro.topology.waxman`, :mod:`repro.topology.barabasi_albert`,
  :mod:`repro.topology.hierarchical`, :mod:`repro.topology.brite` — BRITE-like
  synthetic topology generators (the paper's simulation substrate).
* :mod:`repro.topology.backbone` — a synthetic US continental backbone used in
  place of the proprietary AT&T dataset.
* :mod:`repro.topology.delays` — the round-trip delay model (500 ms max RTT,
  50 % discounted inter-server mesh).
* :mod:`repro.topology.coordinates` — Vivaldi-style network coordinates
  (O(n) synthetic-coordinate state predicting pairwise RTTs).
* :mod:`repro.topology.delay_backends` — pluggable dense / coords / sparse
  delay backends and the compact client×server delay representation.
* :mod:`repro.topology.placement` — server / client placement onto nodes.
"""

from repro.topology.backbone import BackboneParams, us_backbone_topology
from repro.topology.barabasi_albert import BarabasiAlbertParams, barabasi_albert_topology
from repro.topology.brite import BriteConfig, generate_topology
from repro.topology.coordinates import (
    DEFAULT_COORDS_DIM,
    NetworkCoordinates,
    fit_network_coordinates,
)
from repro.topology.delay_backends import (
    DEFAULT_DELAY_BACKEND,
    DEFAULT_SPARSE_TOP_K,
    DELAY_BACKENDS,
    SPARSE_FILL_DELAY_MS,
    CompactDelayMatrix,
    CoordsDelayBackend,
    DelayBackend,
    DenseDelayBackend,
    SparseDelayBackend,
    make_delay_backend,
    network_coordinates_for,
)
from repro.topology.delays import (
    DEFAULT_MAX_RTT_MS,
    DEFAULT_SERVER_MESH_FACTOR,
    DelayModel,
)
from repro.topology.graph import Topology, TopologyError, merge_topologies
from repro.topology.hierarchical import HierarchicalParams, hierarchical_topology
from repro.topology.placement import (
    ClusteredPlacementParams,
    place_clients_clustered,
    place_clients_uniform,
    place_servers,
)
from repro.topology.waxman import WaxmanParams, waxman_topology

__all__ = [
    "Topology",
    "TopologyError",
    "merge_topologies",
    "WaxmanParams",
    "waxman_topology",
    "BarabasiAlbertParams",
    "barabasi_albert_topology",
    "HierarchicalParams",
    "hierarchical_topology",
    "BriteConfig",
    "generate_topology",
    "BackboneParams",
    "us_backbone_topology",
    "DelayModel",
    "DEFAULT_MAX_RTT_MS",
    "DEFAULT_SERVER_MESH_FACTOR",
    "NetworkCoordinates",
    "fit_network_coordinates",
    "DEFAULT_COORDS_DIM",
    "DELAY_BACKENDS",
    "DEFAULT_DELAY_BACKEND",
    "DEFAULT_SPARSE_TOP_K",
    "SPARSE_FILL_DELAY_MS",
    "CompactDelayMatrix",
    "DelayBackend",
    "DenseDelayBackend",
    "CoordsDelayBackend",
    "SparseDelayBackend",
    "make_delay_backend",
    "network_coordinates_for",
    "ClusteredPlacementParams",
    "place_servers",
    "place_clients_uniform",
    "place_clients_clustered",
]
