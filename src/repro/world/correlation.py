"""Physical-world ↔ virtual-world correlation model.

The paper models the empirical observation that "clients that are close to
each other in their physical locations (e.g. from the same country or the same
geographic region) tend to gather in a specific zone of the virtual world due
to their common cultural preferences" with a correlation parameter
``0 <= delta <= 1`` (following Nguyen, Safaei & Boustead): the higher delta,
the stronger the tendency of physically co-located clients to share zones.

The concrete generative model used here:

1. Zones are partitioned into *preference groups*, one group per geographic
   region (AS domain / PoP metro area of the topology).  The partition is a
   random balanced split so every region prefers roughly ``n / #regions``
   zones.
2. For each client, with probability ``delta`` its avatar's zone is drawn from
   the preference group of the client's own region; with probability
   ``1 - delta`` it is drawn from the global zone distribution.

With ``delta = 0`` the virtual-world distribution is independent of physical
location; with ``delta = 1`` every zone is populated (almost) exclusively by
clients of a single region — which is precisely what makes the delay-aware
GreZ assignment shine in Figure 5 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.distinct import sorted_distinct
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_probability

__all__ = ["RegionZoneMap", "correlated_zone_choice"]


@dataclass(frozen=True)
class RegionZoneMap:
    """A partition of zones into per-region preference groups.

    Attributes
    ----------
    num_zones:
        Total number of zones.
    region_of_zone:
        ``(num_zones,)`` region id preferred for each zone.
    regions:
        Sorted array of distinct region ids.
    """

    num_zones: int
    region_of_zone: np.ndarray
    regions: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "region_of_zone", np.asarray(self.region_of_zone, dtype=np.int64)
        )
        object.__setattr__(self, "regions", np.asarray(self.regions, dtype=np.int64))
        if self.region_of_zone.shape != (self.num_zones,):
            raise ValueError("region_of_zone must have one entry per zone")
        if not np.isin(self.region_of_zone, self.regions).all():
            raise ValueError("region_of_zone refers to unknown regions")

    @classmethod
    def balanced(
        cls, num_zones: int, regions: np.ndarray, seed: SeedLike = None
    ) -> "RegionZoneMap":
        """Create a balanced random partition of zones among regions.

        Every region receives either ``floor(n/r)`` or ``ceil(n/r)`` zones.
        """
        regions = sorted_distinct(np.asarray(regions, dtype=np.int64))
        if regions.size == 0:
            raise ValueError("at least one region is required")
        if num_zones < 1:
            raise ValueError("num_zones must be >= 1")
        deal = regions[np.arange(num_zones) % regions.size]
        return cls.balanced_prepared(num_zones, regions, deal, seed=seed)

    @classmethod
    def balanced_prepared(
        cls, num_zones: int, regions: np.ndarray, deal: np.ndarray, seed: SeedLike = None
    ) -> "RegionZoneMap":
        """:meth:`balanced` with the region bookkeeping precomputed.

        ``regions`` must already be sorted, duplicate-free int64 and ``deal``
        must equal ``regions[np.arange(num_zones) % regions.size]`` — exactly
        what :class:`~repro.world.distributions.ZoneSamplingPlan` caches
        across churn epochs.  One ``permutation`` draw shuffles the zones,
        and scattering ``deal`` through it deals them to the regions
        round-robin (permutation indices are distinct, so the scatter has no
        conflicts).  The map is valid by construction, so the
        ``__post_init__`` membership re-validation is skipped.
        """
        rng = as_generator(seed)
        zone_order = rng.permutation(num_zones)
        region_of_zone = np.empty(num_zones, dtype=np.int64)
        region_of_zone[zone_order] = deal
        self = object.__new__(cls)
        object.__setattr__(self, "num_zones", num_zones)
        object.__setattr__(self, "region_of_zone", region_of_zone)
        object.__setattr__(self, "regions", regions)
        return self

    def zones_of_region(self, region: int) -> np.ndarray:
        """Zones preferred by clients of ``region`` (never empty for known regions)."""
        zones = np.flatnonzero(self.region_of_zone == region)
        if zones.size == 0:
            # More regions than zones: fall back to a deterministic single zone
            # so that sampling never fails.
            zones = np.array([int(region) % self.num_zones])
        return zones


def correlated_zone_choice(
    client_regions: np.ndarray,
    zone_weights: np.ndarray,
    delta: float,
    region_map: Optional[RegionZoneMap],
    seed: SeedLike = None,
    plan_probs: np.ndarray | None = None,
    plan_cdf: np.ndarray | None = None,
) -> np.ndarray:
    """Sample a zone for each client with physical↔virtual correlation ``delta``.

    Parameters
    ----------
    client_regions:
        ``(num_clients,)`` geographic region id (AS domain) of each client.
    zone_weights:
        ``(num_zones,)`` non-negative global popularity weight of each zone
        (uniform or clustered "hot zone" weights); it is used both for the
        uncorrelated draws and, restricted and renormalised, for the
        correlated draws inside a region's preference group.
    delta:
        Correlation parameter in [0, 1].
    region_map:
        The zone→region preference partition.  Only correlated clients read
        it, so it may be ``None`` when ``delta`` is 0.
    seed:
        RNG.
    plan_probs / plan_cdf:
        Optional precomputed normalised probabilities and sampling cdf of
        ``zone_weights`` (cached by
        :class:`~repro.world.distributions.ZoneSamplingPlan`).  The cdf draw
        replicates ``Generator.choice(..., p=probs)`` exactly — numpy's own
        implementation is ``cdf.searchsorted(rng.random(size), "right")``
        over the same cdf — so results and the RNG state afterwards are
        bit-identical with or without the cache.

    Returns
    -------
    numpy.ndarray
        ``(num_clients,)`` zone index per client.
    """
    check_probability(delta, "delta")
    if region_map is None and delta > 0.0:
        raise ValueError("a region_map is required when delta > 0")
    num_zones = len(zone_weights) if region_map is None else region_map.num_zones
    rng = as_generator(seed)
    client_regions = np.asarray(client_regions, dtype=np.int64)
    if plan_probs is not None:
        # Weights were validated and normalised once at plan-build time.
        probs = plan_probs
    else:
        weights = np.asarray(zone_weights, dtype=np.float64)
        if weights.shape != (num_zones,):
            raise ValueError("zone_weights must have one entry per zone")
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("zone_weights must be non-negative and not all zero")
        probs = weights / weights.sum()

    num_clients = client_regions.shape[0]
    zones = np.empty(num_clients, dtype=np.int64)
    correlated = rng.random(num_clients) < delta

    # Uncorrelated clients: one vectorised draw from the global distribution.
    uncorrelated = ~correlated
    n_global = int(uncorrelated.sum())
    if n_global:
        if plan_cdf is not None:
            zones[uncorrelated] = plan_cdf.searchsorted(rng.random(n_global), side="right")
        else:
            zones[uncorrelated] = rng.choice(num_zones, size=n_global, p=probs)

    # Correlated clients: draw from their region's preference group.  One
    # stable argsort groups them by region, members in ascending client
    # order, and each region takes one cdf search: what
    # ``Generator.choice(pref, p=local)`` does after validating ``local``,
    # with the same cdf and the same ``random(k)`` draw.
    if correlated.any():
        corr_idx = np.flatnonzero(correlated)
        members = corr_idx[np.argsort(client_regions[corr_idx], kind="stable")]
        member_regions = client_regions[members]
        bounds = (np.flatnonzero(np.diff(member_regions)) + 1).tolist()
        for start, stop in zip([0, *bounds], [*bounds, members.size]):
            pref = region_map.zones_of_region(int(member_regions[start]))
            local = probs[pref]
            total = local.sum()
            if total <= 0:
                local = np.full(pref.size, 1.0 / pref.size)
            else:
                local = local / total
            cdf = local.cumsum()
            cdf /= cdf[-1]
            picks = cdf.searchsorted(rng.random(stop - start), side="right")
            zones[members[start:stop]] = pref[picks]
    return zones
