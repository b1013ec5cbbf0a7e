"""Test-only oracle: the per-region correlated zone draw and the dealing loop.

A frozen copy of the original ``repro.world.correlation`` sampling: the
round-robin dealing loop over a shuffled zone order (now
``RegionZoneMap.balanced_prepared``'s one scatter), and
``correlated_zone_choice``'s per-region loop, one masked member lookup and
one ``Generator.choice(pref, p=local)`` per region.  The library's grouped
draw (one stable argsort, one cdf search per region) must return the same
zones, byte for byte, and leave the generator in the same state;
``tests/test_world_correlation.py`` checks that.
"""

from __future__ import annotations

import numpy as np


def balanced_region_of_zone(
    num_zones: int, regions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Deal zones to the sorted distinct ``regions`` round-robin over a shuffle."""
    regions = np.unique(np.asarray(regions, dtype=np.int64))
    zone_order = rng.permutation(num_zones)
    region_of_zone = np.empty(num_zones, dtype=np.int64)
    for i, zone in enumerate(zone_order):
        region_of_zone[zone] = regions[i % regions.size]
    return region_of_zone


def zones_of_region(region_of_zone: np.ndarray, region: int) -> np.ndarray:
    """A region's preferred zones, or one fallback zone when it has none."""
    zones = np.flatnonzero(region_of_zone == region)
    if zones.size == 0:
        zones = np.array([int(region) % region_of_zone.size])
    return zones


def correlated_zone_choice(
    client_regions: np.ndarray,
    zone_weights: np.ndarray,
    delta: float,
    region_of_zone: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """One zone per client: a global draw, or with probability ``delta`` a regional one."""
    weights = np.asarray(zone_weights, dtype=np.float64)
    num_zones = weights.size
    probs = weights / weights.sum()
    client_regions = np.asarray(client_regions, dtype=np.int64)
    num_clients = client_regions.shape[0]
    zones = np.empty(num_clients, dtype=np.int64)
    correlated = rng.random(num_clients) < delta

    uncorrelated = ~correlated
    n_global = int(uncorrelated.sum())
    if n_global:
        zones[uncorrelated] = rng.choice(num_zones, size=n_global, p=probs)

    if correlated.any():
        corr_idx = np.flatnonzero(correlated)
        for region in np.unique(client_regions[corr_idx]):
            members = corr_idx[client_regions[corr_idx] == region]
            pref = zones_of_region(region_of_zone, int(region))
            local = probs[pref]
            total = local.sum()
            if total <= 0:
                local = np.full(pref.size, 1.0 / pref.size)
            else:
                local = local / total
            zones[members] = rng.choice(pref, size=members.size, p=local)
    return zones
