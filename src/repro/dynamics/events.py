"""Churn events: clients joining, leaving and moving between zones.

"During the course of interactions in the virtual world, clients may move from
one zone to another, new clients may join, existing clients may also leave the
virtual world" (Section 3.4).  A :class:`ChurnBatch` is one bundle of such
events relative to a population snapshot; :func:`apply_churn` produces the new
population plus the index bookkeeping needed to carry an existing assignment
over to the new snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.arena import EpochArena
from repro.utils.distinct import sorted_distinct
from repro.world.clients import ClientPopulation

__all__ = ["ChurnBatch", "ChurnResult", "apply_churn"]


@dataclass(frozen=True)
class ChurnBatch:
    """A batch of join / leave / move events against one population snapshot.

    Attributes
    ----------
    join_nodes / join_zones:
        Physical node and zone of each joining client (parallel arrays).
    leave_indices:
        Indices (into the *pre-churn* population) of the clients that leave.
    move_indices / move_zones:
        Indices (into the *pre-churn* population) of the clients that move and
        the zones they move to (parallel arrays).
    """

    join_nodes: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    join_zones: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    leave_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    move_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    move_zones: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        for name in ("join_nodes", "join_zones", "leave_indices", "move_indices", "move_zones"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if self.join_nodes.shape != self.join_zones.shape:
            raise ValueError("join_nodes and join_zones must be parallel arrays")
        if self.move_indices.shape != self.move_zones.shape:
            raise ValueError("move_indices and move_zones must be parallel arrays")
        overlap = np.intersect1d(
            sorted_distinct(self.leave_indices),
            sorted_distinct(self.move_indices),
            assume_unique=True,
        )
        if overlap.size:
            raise ValueError(
                f"clients {overlap.tolist()} cannot both move and leave in the same batch"
            )

    @classmethod
    def trusted(
        cls,
        join_nodes: np.ndarray,
        join_zones: np.ndarray,
        leave_indices: np.ndarray,
        move_indices: np.ndarray,
        move_zones: np.ndarray,
    ) -> "ChurnBatch":
        """Construct without re-validation, for generator-produced batches.

        :func:`~repro.dynamics.churn.generate_churn` builds batches that are
        valid by construction — all five arrays come out of numpy sampling as
        ``int64``, joins/moves are parallel by shape, and leaves/moves are
        disjoint because they are split from one ``choice(replace=False)``
        draw — so the hot churn loop skips the ``__post_init__`` coercion and
        the ``intersect1d`` overlap check.  Hand-built batches must go through
        the normal constructor.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "join_nodes", join_nodes)
        object.__setattr__(self, "join_zones", join_zones)
        object.__setattr__(self, "leave_indices", leave_indices)
        object.__setattr__(self, "move_indices", move_indices)
        object.__setattr__(self, "move_zones", move_zones)
        return self

    @property
    def num_joins(self) -> int:
        """Number of joining clients."""
        return int(self.join_nodes.size)

    @property
    def num_leaves(self) -> int:
        """Number of leaving clients."""
        return int(self.leave_indices.size)

    @property
    def num_moves(self) -> int:
        """Number of zone moves."""
        return int(self.move_indices.size)

    def summary(self) -> str:
        """Short human-readable description."""
        return f"{self.num_joins} joins, {self.num_leaves} leaves, {self.num_moves} moves"


@dataclass(frozen=True)
class ChurnResult:
    """Population after a churn batch, plus index bookkeeping.

    Attributes
    ----------
    population:
        The post-churn population: surviving clients first (in their original
        relative order), then the joined clients.
    old_to_new:
        ``(num_old_clients,)`` map from pre-churn client index to post-churn
        index, or ``-1`` for clients that left.
    new_client_indices:
        Post-churn indices of the newly joined clients.
    survivors_old:
        Optional cache of ``np.flatnonzero(old_to_new >= 0)`` — the
        *pre-churn* indices of surviving clients, in order.  Because churn
        preserves survivors' relative order, ``old_to_new[survivors_old]``
        is exactly ``arange(survivors_old.size)``, so consumers holding this
        vector can write survivor gathers to a contiguous prefix.  Filled by
        :func:`apply_churn` (the vector lives in an arena scratch buffer and
        must not be retained across epochs); a hand-built result may leave
        it ``None``, and consumers then recompute it.
    movers_old:
        Pre-churn indices of the batch's zone movers: every survivor whose
        zone changed is among them (churn keeps each client's node).
        Filled by :func:`apply_churn` from the batch; a hand-built result
        may leave it ``None``, and a compact delay matrix then does not
        carry GreZ's cost table through the delta.
    """

    population: ClientPopulation
    old_to_new: np.ndarray
    new_client_indices: np.ndarray
    survivors_old: Optional[np.ndarray] = None
    movers_old: Optional[np.ndarray] = None


def apply_churn(
    population: ClientPopulation, batch: ChurnBatch, arena: Optional[EpochArena] = None
) -> ChurnResult:
    """Apply a churn batch to a population snapshot.

    Move events are applied first (on pre-churn indices), then leaving clients
    are removed, then joining clients are appended at the end — in one pass
    over the old population, with no intermediate moved / survivor snapshots.

    The population arrays and the ``old_to_new`` map come out of ``arena``'s
    buffers; the simulation engine passes its session arena and releases them
    once the next epoch has advanced past them.  A caller that passes no
    arena gets a private one, so the arrays are simply its own.
    """
    arena = arena or EpochArena()
    num_old = population.num_clients
    for name, idx in (("leave", batch.leave_indices), ("move", batch.move_indices)):
        if idx.size and (idx.min() < 0 or idx.max() >= num_old):
            raise ValueError(f"{name} indices out of range for population of {num_old}")

    keep_mask = arena.scratch("churn_keep_mask", num_old, dtype=bool)
    keep_mask[:] = True
    keep_mask[batch.leave_indices] = False
    num_survivors = int(np.count_nonzero(keep_mask))
    num_new = num_survivors + batch.num_joins

    zones_moved = arena.scratch("churn_zones_moved", num_old, dtype=np.int64)
    np.copyto(zones_moved, population.zones)
    zones_moved[batch.move_indices] = batch.move_zones

    nodes = arena.acquire((num_new,), dtype=np.int64)
    zones = arena.acquire((num_new,), dtype=np.int64)
    np.compress(keep_mask, population.nodes, out=nodes[:num_survivors])
    np.compress(keep_mask, zones_moved, out=zones[:num_survivors])
    nodes[num_survivors:] = batch.join_nodes
    zones[num_survivors:] = batch.join_zones

    old_to_new = arena.acquire((num_old,), dtype=np.int64)
    old_to_new[:] = -1
    old_to_new[keep_mask] = arena.arange(num_survivors)
    # Cache the survivor index vector for downstream consumers (delta
    # advance, carry-over) so they never re-derive it from old_to_new.
    survivors_old = arena.scratch("churn_survivors_old", num_survivors, dtype=np.int64)
    np.compress(keep_mask, arena.arange(num_old), out=survivors_old)
    new_client_indices = np.arange(num_survivors, num_new)
    return ChurnResult(
        population=ClientPopulation(nodes=nodes, zones=zones),
        old_to_new=old_to_new,
        new_client_indices=new_client_indices,
        survivors_old=survivors_old,
        movers_old=batch.move_indices,
    )
