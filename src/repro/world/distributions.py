"""Client distribution models for the physical and virtual world.

Section 4 of the paper varies two distributions independently (its Table 2):

====  ==================  ==================
type  clusters in PW       clusters in VW
====  ==================  ==================
0     no                   no
1     yes                  no
2     no                   yes
3     yes                  yes
====  ==================  ==================

* *Physical world (PW)*: where clients connect from.  Uniform over topology
  nodes, or clustered on a few hotspot nodes (different time zones / regions
  dominating at a given hour).
* *Virtual world (VW)*: which zone a client's avatar occupies.  Uniform over
  zones, or clustered on a few "hot" zones holding roughly ten times as many
  clients as a normal zone ("the number of clients in a clustered zone is 10
  times larger than that in a non-clustered zone").

On top of either VW distribution, the physical↔virtual correlation parameter
``delta`` (see :mod:`repro.world.correlation`) biases clients towards zones
preferred by their own geographic region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.topology.graph import Topology
from repro.topology.placement import (
    ClusteredPlacementParams,
    place_clients_clustered,
    place_clients_uniform,
)
from repro.utils.distinct import sorted_distinct
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.utils.validation import check_positive, check_probability
from repro.world.correlation import RegionZoneMap, correlated_zone_choice

__all__ = [
    "DistributionSpec",
    "DISTRIBUTION_TYPES",
    "distribution_type",
    "zone_weights",
    "sample_client_nodes",
    "sample_client_zones",
    "ZoneSamplingPlan",
]

_PW_KINDS = ("uniform", "clustered")
_VW_KINDS = ("uniform", "clustered")

#: Paper Table 2 distribution types, as (physical_world, virtual_world) pairs.
DISTRIBUTION_TYPES: dict[int, tuple[str, str]] = {
    0: ("uniform", "uniform"),
    1: ("clustered", "uniform"),
    2: ("uniform", "clustered"),
    3: ("clustered", "clustered"),
}


@dataclass(frozen=True)
class DistributionSpec:
    """Full description of how clients are distributed.

    Attributes
    ----------
    physical:
        ``"uniform"`` or ``"clustered"`` — client locations in the network.
    virtual:
        ``"uniform"`` or ``"clustered"`` — avatar locations in the world.
    correlation:
        Physical↔virtual correlation delta in [0, 1] (paper default 0.5).
    hot_zone_factor:
        Weight multiplier of a hot zone relative to a normal zone (paper: 10).
    hot_zone_fraction:
        Fraction of zones that are "hot" under the clustered VW distribution.
    physical_hotspots / physical_hotspot_fraction:
        Parameters of the clustered PW distribution.
    """

    physical: str = "uniform"
    virtual: str = "uniform"
    correlation: float = 0.5
    hot_zone_factor: float = 10.0
    hot_zone_fraction: float = 0.1
    physical_hotspots: int = 10
    physical_hotspot_fraction: float = 0.7

    def __post_init__(self) -> None:
        if self.physical not in _PW_KINDS:
            raise ValueError(f"physical must be one of {_PW_KINDS}, got {self.physical!r}")
        if self.virtual not in _VW_KINDS:
            raise ValueError(f"virtual must be one of {_VW_KINDS}, got {self.virtual!r}")
        check_probability(self.correlation, "correlation")
        check_positive(self.hot_zone_factor, "hot_zone_factor")
        check_probability(self.hot_zone_fraction, "hot_zone_fraction")
        check_probability(self.physical_hotspot_fraction, "physical_hotspot_fraction")
        if self.physical_hotspots < 1:
            raise ValueError("physical_hotspots must be >= 1")

    @classmethod
    def from_type(cls, dist_type: int, correlation: float = 0.5, **kwargs) -> "DistributionSpec":
        """Build a spec from the paper's Table 2 distribution type (0-3)."""
        if dist_type not in DISTRIBUTION_TYPES:
            raise ValueError(f"distribution type must be in {sorted(DISTRIBUTION_TYPES)}")
        physical, virtual = DISTRIBUTION_TYPES[dist_type]
        return cls(physical=physical, virtual=virtual, correlation=correlation, **kwargs)

    @property
    def type_id(self) -> int:
        """The paper's Table 2 type id of this spec."""
        return distribution_type(self.physical, self.virtual)


def distribution_type(physical: str, virtual: str) -> int:
    """Inverse of :data:`DISTRIBUTION_TYPES`."""
    for type_id, pair in DISTRIBUTION_TYPES.items():
        if pair == (physical, virtual):
            return type_id
    raise ValueError(f"unknown distribution combination ({physical!r}, {virtual!r})")


def zone_weights(
    num_zones: int,
    virtual: str = "uniform",
    hot_zone_factor: float = 10.0,
    hot_zone_fraction: float = 0.1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Global zone popularity weights.

    Uniform distribution → all-ones.  Clustered → a random ``hot_zone_fraction``
    of zones carries ``hot_zone_factor`` times the weight of the others.
    """
    if num_zones < 1:
        raise ValueError("num_zones must be >= 1")
    weights = np.ones(num_zones, dtype=np.float64)
    if virtual == "clustered":
        rng = as_generator(seed)
        n_hot = max(1, int(round(hot_zone_fraction * num_zones)))
        hot = rng.choice(num_zones, size=min(n_hot, num_zones), replace=False)
        weights[hot] = hot_zone_factor
    elif virtual != "uniform":
        raise ValueError(f"virtual must be one of {_VW_KINDS}, got {virtual!r}")
    return weights


def sample_client_nodes(
    topology: Topology,
    num_clients: int,
    spec: DistributionSpec,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample each client's physical node according to the PW distribution."""
    if spec.physical == "uniform":
        return place_clients_uniform(topology, num_clients, seed=seed)
    params = ClusteredPlacementParams(
        num_hotspots=spec.physical_hotspots,
        hotspot_fraction=spec.physical_hotspot_fraction,
    )
    return place_clients_clustered(topology, num_clients, params=params, seed=seed)


@dataclass(frozen=True, eq=False)
class ZoneSamplingPlan:
    """Cached population-independent state for :func:`sample_client_zones`.

    Churn generation redraws joiners' zones every epoch against the *same*
    topology, zone count and distribution spec; only the RNG state and the
    joining clients change.  The plan precomputes everything the per-epoch
    call used to derive from scratch — the sorted region universe, the
    round-robin dealing vector behind :meth:`RegionZoneMap.balanced`, and the
    all-ones uniform zone weights — and :func:`sample_client_zones` consumes
    the exact same RNG draws with or without a plan, so the sampled zones are
    bit-identical either way.
    """

    topology: Topology
    num_zones: int
    spec: DistributionSpec
    all_regions: np.ndarray
    deal: np.ndarray
    uniform_weights: Optional[np.ndarray]
    uniform_probs: Optional[np.ndarray]
    uniform_cdf: Optional[np.ndarray]

    @classmethod
    def build(cls, topology: Topology, num_zones: int, spec: DistributionSpec):
        """Precompute the plan for one (topology, num_zones, spec) world."""
        if topology.node_domain is not None:
            base = sorted_distinct(topology.node_domain)
        else:
            base = np.arange(topology.num_nodes)
        all_regions = sorted_distinct(np.asarray(base, dtype=np.int64))
        all_regions.setflags(write=False)
        deal = all_regions[np.arange(num_zones) % all_regions.size]
        deal.setflags(write=False)
        uniform_weights = uniform_probs = uniform_cdf = None
        if spec.virtual == "uniform":
            uniform_weights = np.ones(num_zones, dtype=np.float64)
            uniform_weights.setflags(write=False)
            # Probabilities and sampling cdf exactly as correlated_zone_choice
            # and numpy's Generator.choice derive them per call, frozen once.
            uniform_probs = uniform_weights / uniform_weights.sum()
            uniform_cdf = uniform_probs.cumsum()
            uniform_cdf /= uniform_cdf[-1]
            uniform_probs.setflags(write=False)
            uniform_cdf.setflags(write=False)
        return cls(
            topology=topology,
            num_zones=num_zones,
            spec=spec,
            all_regions=all_regions,
            deal=deal,
            uniform_weights=uniform_weights,
            uniform_probs=uniform_probs,
            uniform_cdf=uniform_cdf,
        )


def sample_client_zones(
    topology: Topology,
    client_nodes: np.ndarray,
    num_zones: int,
    spec: DistributionSpec,
    seed: SeedLike = None,
    plan: Optional[ZoneSamplingPlan] = None,
) -> np.ndarray:
    """Sample each client's zone according to the VW distribution and correlation.

    The geographic region of a client is the AS domain of its node (or node id
    itself when the topology carries no domain labels).

    ``plan`` optionally supplies the precomputed population-independent state
    (:class:`ZoneSamplingPlan`) so hot churn loops skip the per-call region
    bookkeeping; the RNG draw order is unchanged, so results are bit-identical
    with or without a plan.
    """
    if plan is not None and (
        plan.topology is not topology or plan.num_zones != num_zones or plan.spec != spec
    ):
        raise ValueError("ZoneSamplingPlan was built for a different world or spec")
    rng = as_generator(seed)
    weights_rng, map_rng, choice_rng = spawn_generators(rng, 3)
    if plan is not None and plan.uniform_weights is not None:
        # Uniform virtual weights are a constant all-ones vector and consume
        # no randomness (weights_rng is spawned either way, preserving the
        # draw layout).
        weights = plan.uniform_weights
    else:
        weights = zone_weights(
            num_zones,
            virtual=spec.virtual,
            hot_zone_factor=spec.hot_zone_factor,
            hot_zone_fraction=spec.hot_zone_fraction,
            seed=weights_rng,
        )
    client_nodes = np.asarray(client_nodes, dtype=np.int64)
    if topology.node_domain is not None:
        regions = topology.node_domain[client_nodes]
    else:
        regions = client_nodes
    if plan is not None:
        region_map = RegionZoneMap.balanced_prepared(
            num_zones, plan.all_regions, plan.deal, seed=map_rng
        )
    else:
        if topology.node_domain is not None:
            all_regions = sorted_distinct(topology.node_domain)
        else:
            all_regions = np.arange(topology.num_nodes)
        region_map = RegionZoneMap.balanced(num_zones, all_regions, seed=map_rng)
    plan_probs = plan_cdf = None
    if plan is not None and plan.uniform_probs is not None:
        plan_probs, plan_cdf = plan.uniform_probs, plan.uniform_cdf
    return correlated_zone_choice(
        regions,
        weights,
        spec.correlation,
        region_map,
        seed=choice_rng,
        plan_probs=plan_probs,
        plan_cdf=plan_cdf,
    )
