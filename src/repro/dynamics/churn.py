"""Churn generators: random join / leave / move batches.

The dynamics experiment of the paper (its Table 3) obtains an assignment for
the 20s-80z-1000c-500cp configuration, then lets "200 new clients randomly
join, 200 existing clients randomly leave the virtual world and 200 clients
randomly move to another zone".  :func:`generate_churn` produces exactly such
a batch: joins follow the scenario's configured client distributions (so new
clients look like the original population), leaves are uniform over the
existing clients, and moves send uniformly chosen clients to a different zone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dynamics.events import ChurnBatch
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.distributions import (
    ZoneSamplingPlan,
    sample_client_nodes,
    sample_client_zones,
)
from repro.world.scenario import DVEScenario

__all__ = ["ChurnSpec", "generate_churn"]


@dataclass(frozen=True)
class ChurnSpec:
    """How much churn to generate in one batch.

    Defaults reproduce the paper's Table 3 experiment (200 / 200 / 200).
    """

    num_joins: int = 200
    num_leaves: int = 200
    num_moves: int = 200

    def __post_init__(self) -> None:
        for name in ("num_joins", "num_leaves", "num_moves"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def generate_churn(
    scenario: DVEScenario,
    spec: ChurnSpec | None = None,
    seed: SeedLike = None,
    zone_plan: ZoneSamplingPlan | None = None,
) -> ChurnBatch:
    """Generate a random churn batch for a scenario.

    Leaves and moves are sampled over disjoint subsets of the existing clients
    (a client cannot both move and leave in the same batch); if the population
    is too small to honour both counts, they are reduced proportionally.

    ``zone_plan`` optionally carries the precomputed zone-sampling state
    (:class:`~repro.world.distributions.ZoneSamplingPlan`) reused across the
    epochs of a session; batches are bit-identical with or without it.
    """
    spec = spec or ChurnSpec()
    rng = as_generator(seed)
    join_node_rng, join_zone_rng, pick_rng, move_rng = spawn_generators(rng, 4)

    # Joining clients follow the original distribution spec.
    dist_spec = scenario.config.distribution_spec
    join_nodes = sample_client_nodes(
        scenario.topology, spec.num_joins, dist_spec, seed=join_node_rng
    )
    join_zones = sample_client_zones(
        scenario.topology,
        join_nodes,
        scenario.num_zones,
        dist_spec,
        seed=join_zone_rng,
        plan=zone_plan,
    )

    num_clients = scenario.num_clients
    num_leaves = min(spec.num_leaves, num_clients)
    num_moves = min(spec.num_moves, max(num_clients - num_leaves, 0))
    if num_leaves + num_moves > 0 and num_clients > 0:
        picked = pick_rng.choice(num_clients, size=num_leaves + num_moves, replace=False)
    else:
        picked = np.zeros(0, dtype=np.int64)
    leave_indices = picked[:num_leaves]
    move_indices = picked[num_leaves:]

    # Destination zones for the movers.
    move_zones = _sample_move_zones(scenario, move_indices, move_rng)

    if zone_plan is not None:
        # Hot-loop (arena) mode: the batch is valid by construction, so skip
        # the ChurnBatch re-validation.  Field values are identical either way.
        return ChurnBatch.trusted(
            join_nodes, join_zones, leave_indices, move_indices, move_zones
        )
    return ChurnBatch(
        join_nodes=join_nodes,
        join_zones=join_zones,
        leave_indices=leave_indices,
        move_indices=move_indices,
        move_zones=move_zones,
    )


def _sample_move_zones(
    scenario: DVEScenario,
    move_indices: np.ndarray,
    move_rng: np.random.Generator,
) -> np.ndarray:
    """Destination zone of each mover, uniform over the other zones.

    One draw from ``[0, num_zones - 1)`` per mover, shifted past the origin
    so the origin is excluded.
    """
    num_zones = scenario.num_zones
    origins = scenario.population.zones[move_indices]
    if move_indices.size == 0 or num_zones <= 1:
        return origins.copy()  # single-zone world: the avatar has nowhere else to go
    draws = move_rng.integers(0, num_zones - 1, size=move_indices.size)
    return np.where(draws >= origins, draws + 1, draws)
