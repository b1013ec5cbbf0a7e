"""Infrastructure churn: servers joining, leaving and drifting in capacity.

The paper's dynamics section only lets the *client* side of the system change;
the server fleet is fixed for the lifetime of an experiment.  Real deployments
are elastic: machines are added under load, reclaimed when idle, fail outright,
and their effective bandwidth capacity drifts as co-located tenants come and
go.  This module is the server-side mirror of :mod:`repro.dynamics.events` /
:mod:`repro.dynamics.churn`:

* :class:`ServerChurnSpec` — how much infrastructure churn to generate per
  epoch (expected joins / leaves plus a multiplicative capacity-drift factor),
* :class:`ServerChurnBatch` — one concrete bundle of join / leave / drift
  events against a server-set snapshot,
* :func:`generate_server_churn` — random batch generation,
* :class:`ServerChurnResult` / :func:`apply_server_churn` — the new
  :class:`~repro.world.servers.ServerSet` plus the ``old_to_new`` index
  bookkeeping the delta pipeline needs to carry delay columns and assignments
  over to the new fleet.

Like client churn, the result lays out surviving servers first (original
relative order preserved) followed by the joining servers, so the scenario and
instance deltas are pure column gathers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.distinct import sorted_distinct
from repro.utils.rng import SeedLike, as_generator, spawn_generators
from repro.world.servers import MBPS, ServerSet

__all__ = [
    "ServerChurnSpec",
    "ServerChurnBatch",
    "ServerChurnResult",
    "generate_server_churn",
    "apply_server_churn",
]


@dataclass(frozen=True)
class ServerChurnSpec:
    """How much infrastructure churn to generate in one batch.

    Defaults generate *no* churn — an elastic experiment opts in per knob, and
    the all-zero spec is the executable statement of the paper's fixed-fleet
    assumption.

    Attributes
    ----------
    num_joins / num_leaves:
        Servers added to / removed from the fleet per epoch.  Leaves are
        capped so at least one server always survives (a DVE with no servers
        is not a meaningful state).
    capacity_drift:
        Relative standard deviation of a multiplicative log-normal drift
        applied to every *surviving* server's capacity each epoch (0 disables
        drift).  Models effective-bandwidth wobble from co-located tenants.
    join_capacity_mbps:
        Capacity of each joining server in Mbps (a fixed provisioned size, as
        when renting one more machine of a known shape).
    min_capacity_mbps:
        Floor applied after drift so a capacity can never collapse to zero or
        go negative.
    """

    num_joins: int = 0
    num_leaves: int = 0
    capacity_drift: float = 0.0
    join_capacity_mbps: float = 25.0
    min_capacity_mbps: float = 1.0

    def __post_init__(self) -> None:
        if self.num_joins < 0 or self.num_leaves < 0:
            raise ValueError("num_joins and num_leaves must be non-negative")
        if not self.capacity_drift >= 0:
            raise ValueError("capacity_drift must be non-negative")
        if self.join_capacity_mbps <= 0:
            raise ValueError("join_capacity_mbps must be positive")
        if self.min_capacity_mbps <= 0:
            raise ValueError("min_capacity_mbps must be positive")

    @property
    def is_static(self) -> bool:
        """True when this spec generates no infrastructure changes at all."""
        return self.num_joins == 0 and self.num_leaves == 0 and self.capacity_drift == 0.0


@dataclass(frozen=True)
class ServerChurnBatch:
    """A batch of server join / leave / drift events against one fleet snapshot.

    Attributes
    ----------
    join_nodes / join_capacities:
        Topology node and capacity (bits/s) of each joining server (parallel
        arrays).
    leave_indices:
        Indices (into the *pre-churn* fleet) of the servers that leave.
    capacity_factors:
        ``(num_old_servers,)`` multiplicative drift applied to each pre-churn
        server's capacity (entries of leaving servers are ignored).  An empty
        array means "no drift".
    min_capacity:
        Post-drift capacity floor in bits/s.
    """

    join_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    join_capacities: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    leave_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    capacity_factors: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    min_capacity: float = 1.0 * MBPS

    def __post_init__(self) -> None:
        object.__setattr__(self, "join_nodes", np.asarray(self.join_nodes, dtype=np.int64))
        object.__setattr__(
            self, "join_capacities", np.asarray(self.join_capacities, dtype=np.float64)
        )
        object.__setattr__(self, "leave_indices", np.asarray(self.leave_indices, dtype=np.int64))
        object.__setattr__(
            self, "capacity_factors", np.asarray(self.capacity_factors, dtype=np.float64)
        )
        if self.join_nodes.shape != self.join_capacities.shape:
            raise ValueError("join_nodes and join_capacities must be parallel arrays")
        if self.join_capacities.size and (self.join_capacities <= 0).any():
            raise ValueError("joining servers must have positive capacities")
        if self.capacity_factors.size and (self.capacity_factors <= 0).any():
            raise ValueError("capacity drift factors must be positive")
        if self.min_capacity <= 0:
            raise ValueError("min_capacity must be positive")

    @property
    def num_joins(self) -> int:
        """Number of joining servers."""
        return int(self.join_nodes.size)

    @property
    def num_leaves(self) -> int:
        """Number of leaving servers."""
        return int(self.leave_indices.size)

    @property
    def is_empty(self) -> bool:
        """True when applying this batch cannot change the fleet."""
        return self.num_joins == 0 and self.num_leaves == 0 and self.capacity_factors.size == 0

    def summary(self) -> str:
        """Short human-readable description."""
        drift = "drift" if self.capacity_factors.size else "no drift"
        return f"{self.num_joins} server joins, {self.num_leaves} server leaves, {drift}"


@dataclass(frozen=True)
class ServerChurnResult:
    """Fleet after a server churn batch, plus index bookkeeping.

    Attributes
    ----------
    servers:
        The post-churn server set: surviving servers first (in their original
        relative order, capacities already drifted), then the joined servers.
    old_to_new:
        ``(num_old_servers,)`` map from pre-churn server index to post-churn
        index, or ``-1`` for servers that left.
    new_server_indices:
        Post-churn indices of the newly joined servers.
    """

    servers: ServerSet
    old_to_new: np.ndarray
    new_server_indices: np.ndarray

    @property
    def is_identity(self) -> bool:
        """True when the server *index space* is unchanged (no joins or leaves).

        Capacity drift does not move servers between indices, so a drift-only
        batch is index-identity even though capacities changed — callers that
        only translate indices (assignment remapping) can skip work, but this
        must NOT be read as "the fleet is unchanged".
        """
        return (
            self.new_server_indices.size == 0
            and bool((self.old_to_new == np.arange(self.old_to_new.size)).all())
        )


def generate_server_churn(
    servers: ServerSet,
    spec: ServerChurnSpec | None = None,
    num_nodes: int | None = None,
    seed: SeedLike = None,
) -> ServerChurnBatch:
    """Generate a random infrastructure churn batch for a server fleet.

    Leaves are sampled uniformly over the current fleet, capped so at least
    one server survives; joining servers are placed on uniformly chosen
    topology nodes not currently hosting a server (falling back to any node
    when the fleet already covers the topology).  Capacity drift draws one
    log-normal factor per existing server.

    Parameters
    ----------
    servers:
        The current fleet snapshot.
    spec:
        Churn amounts; the default spec generates an empty batch.
    num_nodes:
        Number of topology nodes joining servers can be placed on (required
        when ``spec.num_joins > 0``).
    seed:
        RNG seed (sub-streams per event type, so adding drift does not change
        which servers leave).
    """
    spec = spec or ServerChurnSpec()
    rng = as_generator(seed)
    leave_rng, join_rng, drift_rng = spawn_generators(rng, 3)

    num_servers = servers.num_servers
    num_leaves = min(spec.num_leaves, max(num_servers - 1, 0))
    if num_leaves > 0:
        leave_indices = np.sort(leave_rng.choice(num_servers, size=num_leaves, replace=False))
    else:
        leave_indices = np.zeros(0, dtype=np.int64)

    if spec.num_joins > 0:
        if num_nodes is None:
            raise ValueError("num_nodes is required to place joining servers")
        occupied = sorted_distinct(servers.nodes)
        free = np.setdiff1d(np.arange(num_nodes, dtype=np.int64), occupied, assume_unique=True)
        pool = free if free.size >= spec.num_joins else np.arange(num_nodes, dtype=np.int64)
        join_nodes = join_rng.choice(pool, size=spec.num_joins, replace=pool.size < spec.num_joins)
        join_capacities = np.full(spec.num_joins, spec.join_capacity_mbps * MBPS)
    else:
        join_nodes = np.zeros(0, dtype=np.int64)
        join_capacities = np.zeros(0, dtype=np.float64)

    if spec.capacity_drift > 0 and num_servers > 0:
        # Log-normal multiplicative drift with unit median: symmetric in log
        # space, never non-positive.
        factors = np.exp(drift_rng.normal(0.0, spec.capacity_drift, size=num_servers))
    else:
        factors = np.zeros(0, dtype=np.float64)

    return ServerChurnBatch(
        join_nodes=join_nodes,
        join_capacities=join_capacities,
        leave_indices=leave_indices,
        capacity_factors=factors,
        min_capacity=spec.min_capacity_mbps * MBPS,
    )


def apply_server_churn(servers: ServerSet, batch: ServerChurnBatch) -> ServerChurnResult:
    """Apply an infrastructure churn batch to a server fleet snapshot.

    Capacity drift is applied first (on pre-churn indices), then leaving
    servers are removed, then joining servers are appended at the end —
    mirroring :func:`repro.dynamics.events.apply_churn` so the two deltas
    compose the same way.
    """
    num_old = servers.num_servers
    if batch.leave_indices.size and (
        batch.leave_indices.min() < 0 or batch.leave_indices.max() >= num_old
    ):
        raise ValueError(f"leave indices out of range for a fleet of {num_old}")
    if sorted_distinct(batch.leave_indices).size != batch.leave_indices.size:
        raise ValueError("leave indices must be distinct")
    if batch.num_leaves >= num_old and batch.num_joins == 0:
        raise ValueError("a server churn batch must leave at least one server in the fleet")

    capacities = servers.capacities
    if batch.capacity_factors.size:
        if batch.capacity_factors.shape != (num_old,):
            raise ValueError(
                f"capacity_factors must have shape ({num_old},), got {batch.capacity_factors.shape}"
            )
        capacities = np.maximum(capacities * batch.capacity_factors, batch.min_capacity)

    keep_mask = np.ones(num_old, dtype=bool)
    keep_mask[batch.leave_indices] = False
    survivor_indices = np.flatnonzero(keep_mask)

    old_to_new = np.full(num_old, -1, dtype=np.int64)
    old_to_new[keep_mask] = np.arange(survivor_indices.size)

    nodes = np.concatenate([servers.nodes[survivor_indices], batch.join_nodes])
    caps = np.concatenate([capacities[survivor_indices], batch.join_capacities])
    new_server_indices = np.arange(survivor_indices.size, nodes.size)
    return ServerChurnResult(
        servers=ServerSet(nodes=nodes, capacities=caps),
        old_to_new=old_to_new,
        new_server_indices=new_server_indices,
    )
