"""Cross-shard capacity arbitration: who gets how much of each server.

In a federated deployment (:mod:`repro.world.federation`) several independent
DVE shards share one server fleet, each seeing a *slice* of every server's
capacity.  An **arbiter** converts per-shard demand / overload signals into a
new ``(num_shards, num_servers)`` slice matrix between simulation epochs —
the control-plane decision of how much capacity each world deserves.

Three built-in arbiters form a ladder:

* :class:`StaticArbiter` — never moves capacity (the do-nothing baseline, and
  the executable statement that a 1-shard federation is the classic engine).
* :class:`ProportionalArbiter` — splits every server proportionally to each
  shard's *total* demand: cheap, fair in aggregate, blind to geography.
* :class:`RegretArbiter` — places all shards' zones on the *full-capacity*
  fleet with the max-regret greedy engine
  (:func:`repro.core.regret.max_regret_assign`) and
  slices each server proportionally to the demand each shard's zones put on
  it in that unconstrained placement — capacity follows where the zones
  would actually go if shard boundaries did not exist.

Every arbiter guarantees **conservation** (per server, slices sum exactly to
the full capacity) and a **minimum slice** (no shard is ever starved to zero
on any server, so every shard scenario stays valid).  Arbiters are pure
functions of their inputs — determinism is inherited by the federation
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Union

import numpy as np

from repro.core.regret import max_regret_assign
from repro.utils.scatter import scatter_add_2d

__all__ = [
    "ShardSignal",
    "CapacityArbiter",
    "StaticArbiter",
    "ProportionalArbiter",
    "RegretArbiter",
    "make_arbiter",
    "check_slices",
    "ARBITER_NAMES",
]

#: User-facing arbiter names accepted by :func:`make_arbiter` (and the CLI).
ARBITER_NAMES = ("static", "proportional", "regret")

#: Relative tolerance of the conservation check in :func:`check_slices`.
_CONSERVATION_RTOL = 1e-9


@dataclass(frozen=True)
class ShardSignal:
    """One shard's observable state, as the arbiter sees it between epochs.

    Attributes
    ----------
    shard_id:
        The shard's index within the federation.
    total_demand:
        The shard's total client demand (bits/s).
    capacities:
        ``(num_servers,)`` the shard's *current* capacity slice (bits/s).
    server_loads:
        ``(num_servers,)`` load the shard's adopted assignment puts on each
        server (bits/s, forwarding included).
    pqos:
        The shard's adopted pQoS after the last epoch.
    capacity_exceeded:
        True when the shard's adopted assignment had to overload some slice.
    zone_demands:
        Optional ``(num_zones,)`` per-zone demand — supplied when the arbiter
        declares :attr:`CapacityArbiter.needs_zone_costs`.
    zone_costs:
        Optional ``(num_servers, num_zones)`` initial-assignment cost matrix
        (:func:`repro.core.costs.initial_cost_matrix`) — same condition.
    """

    shard_id: int
    total_demand: float
    capacities: np.ndarray
    server_loads: np.ndarray
    pqos: float
    capacity_exceeded: bool
    zone_demands: Optional[np.ndarray] = None
    zone_costs: Optional[np.ndarray] = None


def check_slices(slices: np.ndarray, capacities: np.ndarray, num_shards: int) -> np.ndarray:
    """Validate an arbiter's slice matrix (shape, positivity, conservation).

    Returns the validated float64 matrix; raises :class:`ValueError` on any
    violation.  The federation engine runs every arbiter's output through
    this, so a buggy custom arbiter fails loudly instead of silently
    destroying capacity.
    """
    slices = np.asarray(slices, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    if slices.shape != (num_shards, capacities.shape[0]):
        raise ValueError(
            f"slices must have shape ({num_shards}, {capacities.shape[0]}), "
            f"got {slices.shape}"
        )
    if (slices <= 0).any():
        raise ValueError("every capacity slice must be strictly positive")
    if not np.allclose(slices.sum(axis=0), capacities, rtol=_CONSERVATION_RTOL, atol=0.0):
        raise ValueError(
            "capacity conservation violated: per-server slices must sum to the full "
            "server capacities"
        )
    return slices


def _slices_from_weights(
    weights: np.ndarray, capacities: np.ndarray, min_slice_fraction: float
) -> np.ndarray:
    """Turn non-negative per-(shard, server) weights into conserving slices.

    Every server's capacity is split proportionally to the shards' weights on
    it, with each shard floored at ``min_slice_fraction`` of the server (the
    floor is capped at ``1/num_shards`` so it is always feasible).  Columns
    whose weights are all zero fall back to an equal split.  Column sums are
    fixed up to equal the full capacities exactly.
    """
    weights = np.asarray(weights, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    num_shards = weights.shape[0]
    if (weights < 0).any():
        raise ValueError("arbitration weights must be non-negative")
    floor = min(float(min_slice_fraction), 1.0 / num_shards)
    totals = weights.sum(axis=0)
    fractions = np.full_like(weights, 1.0 / num_shards)
    nonzero = totals > 0
    fractions[:, nonzero] = weights[:, nonzero] / totals[nonzero]
    shares = floor + (1.0 - num_shards * floor) * fractions
    slices = shares * capacities[None, :]
    slices[0] += capacities - slices.sum(axis=0)
    return slices


@dataclass(frozen=True)
class CapacityArbiter:
    """Base class of all capacity arbiters.

    Subclasses implement :meth:`weigh`, returning per-(shard, server) demand
    weights (or ``None`` for "no opinion"); the base class turns weights into
    a floored, conserving slice matrix and applies hysteresis.

    Attributes
    ----------
    min_slice_fraction:
        Floor of every shard's slice on every server, as a fraction of the
        server's full capacity (capped at ``1/num_shards``).  Keeps every
        shard scenario valid (capacities must stay positive) and prevents a
        temporarily idle shard from being starved out entirely.
    rebalance_threshold:
        Hysteresis: a proposed re-slice is dropped (``None`` returned) unless
        some slice moves by at least this fraction of its server's full
        capacity.  0 applies every non-identical proposal.
    """

    min_slice_fraction: float = 0.02
    rebalance_threshold: float = 0.0

    #: Name used by :func:`make_arbiter` and the CLI.
    name: ClassVar[str] = "base"
    #: True when :meth:`weigh` consumes ``zone_demands`` / ``zone_costs`` —
    #: the federation engine only computes those signals when asked to.
    needs_zone_costs: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not 0.0 < self.min_slice_fraction <= 1.0:
            raise ValueError("min_slice_fraction must be in (0, 1]")
        if self.rebalance_threshold < 0:
            raise ValueError("rebalance_threshold must be >= 0")

    # ------------------------------------------------------------------ #
    def weigh(
        self, capacities: np.ndarray, signals: Sequence[ShardSignal]
    ) -> Optional[np.ndarray]:
        """Per-(shard, server) capacity-demand weights, or ``None`` to stand pat."""
        raise NotImplementedError

    def arbitrate(
        self, capacities: np.ndarray, signals: Sequence[ShardSignal]
    ) -> Optional[np.ndarray]:
        """New ``(num_shards, num_servers)`` capacity slices, or ``None``.

        ``None`` means "keep the current split" — the federation engine then
        skips the capacity-delta path entirely for the next epoch.
        """
        capacities = np.asarray(capacities, dtype=np.float64)
        weights = self.weigh(capacities, signals)
        if weights is None:
            return None
        slices = check_slices(
            _slices_from_weights(weights, capacities, self.min_slice_fraction),
            capacities,
            len(signals),
        )
        current = np.stack([np.asarray(s.capacities, dtype=np.float64) for s in signals])
        shift = np.abs(slices - current) / capacities[None, :]
        if float(shift.max()) <= self.rebalance_threshold:
            return None
        return slices


@dataclass(frozen=True)
class StaticArbiter(CapacityArbiter):
    """Never moves capacity: shards keep their initial slices forever."""

    name: ClassVar[str] = "static"

    def weigh(self, capacities, signals):
        return None


@dataclass(frozen=True)
class ProportionalArbiter(CapacityArbiter):
    """Splits every server proportionally to each shard's total demand.

    The simplest demand-aware policy: a shard with twice the client demand
    gets twice the slice — of *every* server, regardless of where its clients
    actually are.  Cheap (O(shards × servers)) and a strong baseline.
    """

    name: ClassVar[str] = "proportional"

    def weigh(self, capacities, signals):
        demands = np.array([max(float(s.total_demand), 0.0) for s in signals])
        return np.tile(demands[:, None], (1, capacities.shape[0]))


@dataclass(frozen=True)
class RegretArbiter(CapacityArbiter):
    """Max-regret-aware re-slicer: capacity follows the zones' preferred hosts.

    Pools every shard's zones and places them on the **full-capacity** fleet
    with :func:`repro.core.regret.max_regret_assign` — i.e. computes where
    the zones would go if shard boundaries did not exist — then gives each
    shard a slice of each server proportional to the demand its zones put
    there in that placement.  A
    shard whose zones are delay-bound to a specific region of the topology
    attracts capacity exactly on the servers of that region, which the
    demand-proportional split cannot express.

    ``recompute=True`` switches the pooled placement to dynamic regrets (the
    ablation study's E7 variant).
    """

    recompute: bool = False

    name: ClassVar[str] = "regret"
    needs_zone_costs: ClassVar[bool] = True

    def weigh(self, capacities, signals):
        costs: List[np.ndarray] = []
        demands: List[np.ndarray] = []
        owners: List[np.ndarray] = []
        for s in signals:
            if s.zone_costs is None or s.zone_demands is None:
                raise ValueError(
                    "RegretArbiter needs zone_costs and zone_demands in every shard "
                    "signal (the federation engine supplies them when "
                    "needs_zone_costs is True)"
                )
            costs.append(np.asarray(s.zone_costs, dtype=np.float64))
            demands.append(np.asarray(s.zone_demands, dtype=np.float64))
            owners.append(np.full(demands[-1].shape[0], s.shard_id, dtype=np.int64))
        desirability = -np.concatenate(costs, axis=1)
        zone_demands = np.concatenate(demands)
        zone_owners = np.concatenate(owners)
        placement = max_regret_assign(
            desirability,
            zone_demands,
            capacities,
            fallback="least_loaded",
            recompute=self.recompute,
        )
        return scatter_add_2d(
            (len(signals), capacities.shape[0]),
            zone_owners,
            zone_demands,
            cols=placement.item_to_server,
        )


def make_arbiter(
    arbiter: Union[str, CapacityArbiter],
    min_slice_fraction: Optional[float] = None,
    rebalance_threshold: Optional[float] = None,
) -> CapacityArbiter:
    """Normalise an arbiter name (or an existing arbiter) into an instance.

    Accepted names: ``"static"``, ``"proportional"``, ``"regret"``.  The
    keyword overrides only apply when constructing from a name — an existing
    arbiter instance is returned as-is (it already carries its knobs).
    """
    if isinstance(arbiter, CapacityArbiter):
        return arbiter
    name = str(arbiter).strip().lower()
    kwargs = {}
    if min_slice_fraction is not None:
        kwargs["min_slice_fraction"] = min_slice_fraction
    if rebalance_threshold is not None:
        kwargs["rebalance_threshold"] = rebalance_threshold
    if name == "static":
        return StaticArbiter(**kwargs)
    if name == "proportional":
        return ProportionalArbiter(**kwargs)
    if name == "regret":
        return RegretArbiter(**kwargs)
    raise ValueError(f"unknown arbiter {arbiter!r}; expected one of {ARBITER_NAMES}")
