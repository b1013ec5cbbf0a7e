"""Graceful degradation: admission control, shedding and the degraded pool.

The paper's dynamics section assumes demand always fits the fleet; a scenario
layer that downs whole server regions (:mod:`repro.dynamics.scenarios`) breaks
that assumption.  When an epoch's post-churn demand exceeds the surviving
capacity the engine must *degrade* instead of crash: excess clients are
deterministically evicted to a :class:`DegradedPool` ("your region is down,
please hold") and re-admitted in FIFO order once capacity returns.

The mechanism runs entirely at the churn-batch level, *before*
:func:`repro.dynamics.events.apply_churn`: :func:`admission_control` rewrites
the batch (shed joiners are dropped, shed survivors become extra leavers,
re-admitted pool clients become extra joiners), so every downstream layer —
world advance, incremental measurement — sees an ordinary churn batch.

Demand follows the quadratic bandwidth model
(:func:`repro.world.bandwidth.client_target_demands`): a zone with population ``p``
demands ``stream_bps * p * (p + 1)`` bits/s, so removing one client from a
zone with ``p`` clients lowers total demand by ``2 * stream_bps * p`` and
adding one to a zone with ``p`` raises it by ``2 * stream_bps * (p + 1)`` —
shedding strictly decreases demand, so the loop always terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.dynamics.events import ChurnBatch
from repro.utils.rng import SeedLike, as_generator
from repro.world.clients import ClientPopulation

__all__ = [
    "DegradedPool",
    "AdmissionPolicy",
    "AdmissionStats",
    "admission_control",
    "pick_evacuation_host",
]

#: Shedding threshold: clients are evicted until total demand is at most
#: this fraction of the fleet's total capacity.
MAX_LOAD_FACTOR = 1.0
#: Re-admission threshold, strictly below :data:`MAX_LOAD_FACTOR` for
#: hysteresis: pool clients are only re-admitted while demand (including each
#: re-admission's own contribution) stays at most this fraction of total
#: capacity, so a borderline world does not oscillate between shedding and
#: re-admitting every epoch.
READMIT_LOAD_FACTOR = 0.9


@dataclass
class DegradedPool:
    """FIFO pool of clients evicted by admission control.

    Each entry is the client's (physical node, avatar zone) pair — enough to
    re-admit it later as an ordinary join — plus the epoch it was shed, so an
    abandonment policy (:attr:`AdmissionPolicy.patience_epochs`) can expire
    clients that waited too long.  Oldest entries re-admit first.
    """

    nodes: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0, dtype=np.int64))
    zones: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0, dtype=np.int64))
    shed_epochs: np.ndarray = field(
        init=False, default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def size(self) -> int:
        """Number of clients currently degraded."""
        return int(self.nodes.size)

    def push(self, nodes: np.ndarray, zones: np.ndarray, epoch: int = 0) -> None:
        """Append evicted clients at the back of the queue, stamped ``epoch``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        zones = np.asarray(zones, dtype=np.int64)
        if nodes.shape != zones.shape:
            raise ValueError("nodes and zones must be parallel arrays")
        self.nodes = np.concatenate([self.nodes, nodes])
        self.zones = np.concatenate([self.zones, zones])
        self.shed_epochs = np.concatenate(
            [self.shed_epochs, np.full(nodes.shape[0], int(epoch), dtype=np.int64)]
        )

    def pop_front(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the ``count`` oldest entries."""
        count = int(count)
        if count < 0 or count > self.size:
            raise ValueError(f"cannot pop {count} entries from a pool of {self.size}")
        nodes, zones = self.nodes[:count], self.zones[:count]
        self.nodes = self.nodes[count:]
        self.zones = self.zones[count:]
        self.shed_epochs = self.shed_epochs[count:]
        return nodes, zones

    def expire(self, epoch: int, patience: Optional[int]) -> int:
        """Drop clients that have waited ``patience`` or more epochs.

        Returns the number of abandoned clients.  ``patience=None`` waits
        forever.  The pool is FIFO-ordered by shed epoch, so expiry is a
        front slice — deterministic, no randomness involved.
        """
        if patience is None or not self.size:
            return 0
        keep_from = int(np.searchsorted(self.shed_epochs, epoch - patience, side="right"))
        if keep_from == 0:
            return 0
        self.nodes = self.nodes[keep_from:]
        self.zones = self.zones[keep_from:]
        self.shed_epochs = self.shed_epochs[keep_from:]
        return keep_from


@dataclass(frozen=True)
class AdmissionPolicy:
    """How long a shed client waits to be re-admitted.

    Shedding and re-admission follow :data:`MAX_LOAD_FACTOR` and
    :data:`READMIT_LOAD_FACTOR`.

    Attributes
    ----------
    patience_epochs:
        Abandonment: a pooled client that has waited this many epochs without
        being re-admitted gives up and is dropped from the pool (``None``
        waits forever).  Bounds the pool for disturbances the world can
        *never* absorb — a flash crowd onto one zone exceeds that zone's
        quadratic-demand ceiling no matter how long it queues, and without
        abandonment the pool would sit non-empty forever.
    """

    patience_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.patience_epochs is not None and self.patience_epochs < 1:
            raise ValueError("patience_epochs must be >= 1 (or None to wait forever)")


@dataclass(frozen=True)
class AdmissionStats:
    """What admission control did to one epoch's churn batch.

    ``clients_degraded`` is the pool size *after* the batch was rewritten —
    the number of clients sitting out this epoch.  ``capacity_deficit`` is the
    natural (pre-shedding) demand overshoot ``max(0, demand - capacity)`` in
    bits/s, i.e. how infeasible the world would have been without shedding.
    """

    clients_degraded: int = 0
    capacity_deficit: float = 0.0
    num_shed: int = 0
    num_readmitted: int = 0
    num_abandoned: int = 0


def _post_batch_populations(
    batch: ChurnBatch, population: ClientPopulation, num_zones: int
) -> np.ndarray:
    """Per-zone client counts after the batch would be applied (float64)."""
    pops = np.bincount(population.zones, minlength=num_zones).astype(np.float64)
    if batch.move_indices.size:
        np.subtract.at(pops, population.zones[batch.move_indices], 1.0)
        np.add.at(pops, batch.move_zones, 1.0)
    if batch.leave_indices.size:
        # Leavers are disjoint from movers (ChurnBatch validates this), so
        # their zone is still their pre-batch zone.
        np.subtract.at(pops, population.zones[batch.leave_indices], 1.0)
    if batch.join_zones.size:
        np.add.at(pops, batch.join_zones, 1.0)
    return pops


def admission_control(
    batch: ChurnBatch,
    population: ClientPopulation,
    num_zones: int,
    stream_bps: float,
    total_capacity: float,
    pool: DegradedPool,
    policy: AdmissionPolicy,
    rng: SeedLike,
    epoch: int = 0,
) -> tuple[ChurnBatch, AdmissionStats]:
    """Rewrite a churn batch so the post-batch demand fits the fleet.

    Shedding order is deterministic for a fixed ``rng`` seed: joiners are
    evicted first (they never entered the world, so evicting them is free),
    then — only if still over the threshold — existing clients, both in a
    seeded random permutation.  Shed survivors become extra leavers (movers
    among them are removed from the move arrays first, keeping the batch's
    leave/move disjointness); their (node, zone) pairs queue at the back of
    ``pool``.  Re-admission is strict FIFO and only attempted on epochs that
    need no shedding: pool clients rejoin (as appended joins) while demand
    stays under the hysteresis threshold, stopping at the first client that
    does not fit.

    ``rng`` is any seed; its Generator is built, and drawn from, only when
    shedding actually happens, so feasible worlds consume no randomness
    here.  ``epoch`` stamps shed clients and drives the policy's
    abandonment clock.
    """
    num_abandoned = pool.expire(epoch, policy.patience_epochs)
    pops = _post_batch_populations(batch, population, num_zones)
    demand = float(stream_bps * (pops * (pops + 1.0)).sum())
    deficit = max(0.0, demand - total_capacity)
    shed_threshold = MAX_LOAD_FACTOR * total_capacity

    if demand <= shed_threshold:
        # Feasible epoch: try to re-admit the oldest degraded clients.
        readmit_threshold = READMIT_LOAD_FACTOR * total_capacity
        admitted = 0
        while admitted < pool.size:
            zone = int(pool.zones[admitted])
            added = 2.0 * stream_bps * (pops[zone] + 1.0)
            if demand + added > readmit_threshold:
                break
            demand += added
            pops[zone] += 1.0
            admitted += 1
        if admitted:
            nodes, zones = pool.pop_front(admitted)
            batch = ChurnBatch(
                join_nodes=np.concatenate([batch.join_nodes, nodes]),
                join_zones=np.concatenate([batch.join_zones, zones]),
                leave_indices=batch.leave_indices,
                move_indices=batch.move_indices,
                move_zones=batch.move_zones,
            )
        stats = AdmissionStats(
            clients_degraded=pool.size,
            capacity_deficit=deficit,
            num_readmitted=admitted,
            num_abandoned=num_abandoned,
        )
        return batch, stats

    # Infeasible epoch: shed until demand fits.  Joiners first.
    rng = as_generator(rng)
    join_keep = np.ones(batch.num_joins, dtype=bool)
    shed_join_order: list[int] = []
    if batch.num_joins:
        for j in rng.permutation(batch.num_joins):
            if demand <= shed_threshold:
                break
            zone = int(batch.join_zones[j])
            demand -= 2.0 * stream_bps * pops[zone]
            pops[zone] -= 1.0
            join_keep[j] = False
            shed_join_order.append(int(j))

    shed_survivors: list[int] = []
    if demand > shed_threshold:
        # Post-batch zone of every pre-batch client (movers count at their
        # destination); clients already leaving are not eligible.
        zone_of = population.zones.copy()
        if batch.move_indices.size:
            zone_of[batch.move_indices] = batch.move_zones
        eligible_mask = np.ones(population.num_clients, dtype=bool)
        eligible_mask[batch.leave_indices] = False
        eligible = np.flatnonzero(eligible_mask)
        for pos in rng.permutation(eligible.size):
            if demand <= shed_threshold:
                break
            client = int(eligible[pos])
            zone = int(zone_of[client])
            demand -= 2.0 * stream_bps * pops[zone]
            pops[zone] -= 1.0
            shed_survivors.append(client)

    if shed_join_order:
        pool.push(
            batch.join_nodes[shed_join_order], batch.join_zones[shed_join_order], epoch
        )
    if shed_survivors:
        shed_idx = np.asarray(shed_survivors, dtype=np.int64)
        zone_of_shed = population.zones[shed_idx].copy()
        if batch.move_indices.size:
            # A shed mover is pooled at its *destination* zone (it was counted
            # there) and its move event is cancelled so it can become a leave.
            move_pos = {int(c): int(z) for c, z in zip(batch.move_indices, batch.move_zones)}
            for k, client in enumerate(shed_idx):
                dest = move_pos.get(int(client))
                if dest is not None:
                    zone_of_shed[k] = dest
        pool.push(population.nodes[shed_idx], zone_of_shed, epoch)
        move_keep = ~np.isin(batch.move_indices, shed_idx)
        new_batch = ChurnBatch(
            join_nodes=batch.join_nodes[join_keep],
            join_zones=batch.join_zones[join_keep],
            leave_indices=np.concatenate([batch.leave_indices, shed_idx]),
            move_indices=batch.move_indices[move_keep],
            move_zones=batch.move_zones[move_keep],
        )
    else:
        new_batch = ChurnBatch(
            join_nodes=batch.join_nodes[join_keep],
            join_zones=batch.join_zones[join_keep],
            leave_indices=batch.leave_indices,
            move_indices=batch.move_indices,
            move_zones=batch.move_zones,
        )
    stats = AdmissionStats(
        clients_degraded=pool.size,
        capacity_deficit=deficit,
        num_shed=len(shed_join_order) + len(shed_survivors),
        num_abandoned=num_abandoned,
    )
    return new_batch, stats


def pick_evacuation_host(free: np.ndarray, capacities: np.ndarray) -> int:
    """Deterministic host for an orphaned zone during fleet evacuation.

    The classic greedy rule — the server with the most free capacity — is
    kept verbatim whenever any server has headroom.  When *every* server is
    already at or over capacity (an infeasible world mid-outage), ``argmax``
    over uniformly negative free space used to be an accident of float noise;
    instead the zone goes to the server with the least *relative* overload
    (``free / capacity``), ties breaking to the lowest index.  The resulting
    overload surfaces through ``capacity_exceeded`` and, when a scenario's
    admission control is active, is resolved by shedding — never by raising.
    """
    free = np.asarray(free, dtype=np.float64)
    if free.size == 0:
        raise ValueError("cannot evacuate onto an empty fleet")
    best = int(np.argmax(free))
    if free[best] > 0:
        return best
    return int(np.argmax(free / np.asarray(capacities, dtype=np.float64)))
