"""Reassignment policies: what to do with an assignment after churn.

The paper's Table 3 compares three states of the system around a churn batch:

* **Before** — the assignment evaluated on the pre-churn population.
* **After** — the *old* assignment carried over and evaluated on the
  post-churn population (new clients simply connect to the server hosting
  their zone, movers keep their old contact server), i.e. no reassignment.
* **Executed** — the assignment algorithm re-executed from scratch on the
  post-churn population.

:func:`carry_over_assignment` implements the "After" state;
:func:`reassign` implements "Executed"; :func:`incremental_reassign` is an
additional, cheaper policy (not in the paper) that keeps the zone→server map
and only re-runs the refined phase, exercising the claim that the initial
phase is the expensive, high-impact one.

For longitudinal runs (many churn epochs), :class:`PolicySchedule` decides
*which* of the repair actions the simulation engine applies at each epoch:
always re-execute (the paper's recommendation), always repair incrementally,
always warm-start the local search from the carried-over assignment, or
re-execute every ``k`` epochs with cheap repairs in between.
:class:`RebalancePolicy` is the pQoS-threshold alternative: the engine asks
it for the epoch's action only after measuring the carried-over pQoS.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import re
from typing import ClassVar, Optional, Union

import numpy as np

from repro.core.assignment import CAPACITY_TOLERANCE, Assignment, server_loads
from repro.core.grec import assign_contacts_greedy
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.core.assignment import ZoneAssignment
from repro.dynamics.degradation import pick_evacuation_host
from repro.dynamics.events import ChurnResult
from repro.dynamics.infrastructure import ServerChurnResult
from repro.utils.rng import SeedLike

__all__ = [
    "carry_over_assignment",
    "remap_assignment_servers",
    "reassign",
    "incremental_reassign",
    "PolicySchedule",
    "RebalancePolicy",
    "make_policy",
    "POLICY_ACTIONS",
    "POLICY_NAMES",
]

def carry_over_assignment(
    old_assignment: Assignment,
    churn: ChurnResult,
    new_instance: CAPInstance,
    out: Optional[np.ndarray] = None,
    loads_out: Optional[np.ndarray] = None,
) -> Assignment:
    """Evaluate-ready version of an old assignment on the post-churn population.

    * The zone→server map is unchanged (zones do not churn).
    * Surviving clients keep their previous contact server.
    * Newly joined clients connect directly to the server hosting their zone
      (the natural default before any reassignment runs).
    * ``capacity_exceeded`` is recomputed against ``new_instance`` — churn
      changes every zone's demand, so the pre-churn flag says nothing about
      the post-churn loads.

    ``out`` optionally supplies a preallocated int64 buffer of at least
    ``new_instance.num_clients`` entries for the contact array; the returned
    assignment then aliases that buffer, so it must not be reused while the
    assignment is still needed (the simulation engine recycles one scratch
    buffer across transient carry-overs).  ``loads_out`` optionally receives
    the ``(num_servers,)`` post-churn loads reduced for the capacity flag,
    so a warm-start repair can start from them
    (:func:`~repro.core.local_search.warm_start_refine`'s ``loads``).
    """
    new_num_clients = churn.population.num_clients
    if out is not None and out.dtype == np.int64 and out.shape[0] >= new_num_clients:
        contacts = out[:new_num_clients]
    else:
        contacts = np.empty(new_num_clients, dtype=np.int64)

    if churn.survivors_old is not None:
        # The arena churn path caches the survivor index vector and numbers
        # survivors 0..k-1 in original order, so the scatter below is a
        # contiguous prefix gather; mode="clip" avoids numpy's staging
        # temporary (indices are in range, clipping never fires), and the
        # joiner default only gathers the joiners' own zone targets instead
        # of the full per-client target vector.
        survivors_old = churn.survivors_old
        num_survivors = survivors_old.size
        np.take(
            old_assignment.contact_of_client,
            survivors_old,
            out=contacts[:num_survivors],
            mode="clip",
        )
        joiners = churn.new_client_indices
        if joiners.size:
            contacts[joiners] = old_assignment.zone_to_server[
                new_instance.client_zones[joiners]
            ]
    else:
        survivors_old = np.flatnonzero(churn.old_to_new >= 0)
        contacts[churn.old_to_new[survivors_old]] = old_assignment.contact_of_client[
            survivors_old
        ]

        targets_new = old_assignment.zone_to_server[new_instance.client_zones]
        contacts[churn.new_client_indices] = targets_new[churn.new_client_indices]

    loads = server_loads(new_instance, old_assignment.zone_to_server, contacts)
    if loads_out is not None:
        loads_out[...] = loads
    capacity_exceeded = bool(
        (loads > new_instance.server_capacities * (1.0 + CAPACITY_TOLERANCE)).any()
    )
    return Assignment(
        zone_to_server=old_assignment.zone_to_server,
        contact_of_client=contacts,
        algorithm=f"{old_assignment.algorithm} (carried over)",
        capacity_exceeded=capacity_exceeded,
        runtime_seconds=0.0,
    )


def remap_assignment_servers(
    assignment: Assignment,
    server_churn: ServerChurnResult,
    new_instance: CAPInstance,
    client_zones: np.ndarray,
) -> Assignment:
    """Translate an assignment onto a post-churn server fleet.

    The assignment's client set is untouched (server churn is orthogonal to
    client churn); only the server index space changes:

    * Zones hosted by surviving servers keep their host (new index).
    * Zones hosted by a *departed* server are evacuated: each orphaned zone,
      in zone order, goes to the server with the most remaining capacity
      (capacity accounted against ``new_instance``'s zone demands) — a
      deterministic emergency placement that any repair policy can then
      improve on.  When *no* server has free capacity (an infeasible world
      mid-incident), :func:`repro.dynamics.degradation.pick_evacuation_host`
      places the zone on the least relatively overloaded server, ties to the
      lowest index — still deterministic, never raising; the overload then
      surfaces through ``capacity_exceeded`` and is resolved by the scenario
      layer's shedding when admission control is active.
    * Contacts on surviving servers are re-indexed; contacts on departed
      servers fall back to the client's (possibly evacuated) target server,
      the same direct-connection default newly joined clients get.

    Parameters
    ----------
    assignment:
        The pre-churn assignment (server ids in the *old* index space).
    server_churn:
        The fleet delta, including the old→new server index map.
    new_instance:
        The post-churn instance (supplies the new fleet's capacities and the
        zone demands used for evacuation placement).
    client_zones:
        Zone of each client *of the assignment's client set* — the pre-churn
        ``instance.client_zones``, since client churn has not been applied to
        this assignment yet.
    """
    if server_churn.is_identity:
        return assignment
    old_to_new = server_churn.old_to_new
    zone_map = old_to_new[assignment.zone_to_server]

    orphaned = np.flatnonzero(zone_map < 0)
    if orphaned.size:
        zone_demands = new_instance.zone_demands()
        loads = np.zeros(new_instance.num_servers, dtype=np.float64)
        hosted = zone_map >= 0
        if hosted.any():
            np.add.at(loads, zone_map[hosted], zone_demands[hosted])
        free = new_instance.server_capacities - loads
        for zone in orphaned:
            target = pick_evacuation_host(free, new_instance.server_capacities)
            zone_map[zone] = target
            free[target] -= zone_demands[zone]

    contacts = old_to_new[assignment.contact_of_client]
    lost = contacts < 0
    if lost.any():
        contacts[lost] = zone_map[np.asarray(client_zones, dtype=np.int64)[lost]]

    return Assignment(
        zone_to_server=zone_map,
        contact_of_client=contacts,
        algorithm=assignment.algorithm,
        capacity_exceeded=assignment.capacity_exceeded,
        runtime_seconds=assignment.runtime_seconds,
        metadata=dict(assignment.metadata),
    )


def reassign(
    new_instance: CAPInstance,
    algorithm: str,
    seed: SeedLike = None,
) -> Assignment:
    """Re-execute a registered CAP solver from scratch on the new instance."""
    return registry_solve(new_instance, algorithm, seed=seed)


def incremental_reassign(
    old_assignment: Assignment,
    new_instance: CAPInstance,
) -> Assignment:
    """Keep the zone→server map, re-run only the refined (contact) phase.

    This is a cheap repair policy: the expensive initial assignment survives
    the churn and only contact servers are recomputed with GreC against the
    new population and demands.
    """
    zones = ZoneAssignment(
        zone_to_server=old_assignment.zone_to_server,
        algorithm=f"{old_assignment.algorithm}-kept",
        capacity_exceeded=old_assignment.capacity_exceeded,
    )
    refined = assign_contacts_greedy(new_instance, zones)
    return refined.with_algorithm(f"{old_assignment.algorithm} (incremental)")


# --------------------------------------------------------------------------- #
# Policy schedules for longitudinal simulation
# --------------------------------------------------------------------------- #

#: The per-epoch repair actions a schedule can yield.
POLICY_ACTIONS = ("reexecute", "incremental", "warm_start")

#: User-facing policy names accepted by :func:`make_policy` (and the CLI).
POLICY_NAMES = POLICY_ACTIONS + ("every_k_epochs",)

_EVERY_K_RE = re.compile(r"^every_(\d+)_epochs$")


@dataclass(frozen=True)
class PolicySchedule:
    """Maps an epoch index to the repair action the engine should apply.

    ``period == 0`` means "apply ``action`` every epoch".  With a positive
    ``period`` the schedule re-executes the full algorithm on every
    ``period``-th epoch and applies ``action`` in between — the classic
    operator trade-off of scheduled rebalances with cheap repairs between
    them.

    ``migration_budget`` makes a schedule *migration-aware*: when the
    engine's :class:`~repro.dynamics.migration.MigrationCostModel` prices a
    re-executed assignment's zone moves above this budget (cost units per
    epoch), the engine demotes that epoch's re-execution to the cheap
    incremental repair, which keeps the zone map and therefore migrates
    nothing voluntarily.  The default (infinite) budget preserves the
    classic, migration-oblivious behaviour.
    """

    name: str
    action: str
    period: int = 0
    migration_budget: float = math.inf

    def __post_init__(self) -> None:
        if self.action not in POLICY_ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; expected one of {POLICY_ACTIONS}")
        if self.period < 0:
            raise ValueError("period must be >= 0")
        if not self.migration_budget >= 0:
            raise ValueError("migration_budget must be >= 0")

    def action_for_epoch(self, epoch: int) -> str:
        """The action to apply at ``epoch`` (0-based)."""
        if self.period > 0 and (epoch + 1) % self.period == 0:
            return "reexecute"
        return self.action

    def demoted_action(self, pqos_repaired: float, pqos_stale: float) -> str:
        """What replaces a re-execution over the migration budget."""
        return "incremental"


#: The controller keeps a repair only if it brings pQoS within this distance
#: of ``target_pqos``; otherwise it escalates to a full re-execution.
ACCEPT_REPAIR_IF_WITHIN = 0.02


@dataclass(frozen=True)
class RebalancePolicy:
    """Thresholds governing the rebalance controller's decision after each epoch.

    Section 3.4 of the paper notes that "an obtained client assignment may
    not be good after some time.  Thus, the proposed two-phase algorithm
    needs to be executed again to ensure good client assignments" — but
    leaves the trigger to the operator.  This policy is that trigger, run
    by the churn engine: ``ChurnSimulator(policy=RebalancePolicy(...))``.

    Unlike a :class:`PolicySchedule`, the action depends on the live pQoS:
    :meth:`action_for_epoch` defers (returns ``None``) and the engine calls
    :meth:`action_after` once the carried-over ("after") pQoS is measured.
    The actions are ``"none"`` (keep the carried assignment), ``"repair"``
    (the incremental repair, escalated to a re-execution when it misses
    ``target_pqos -`` :data:`ACCEPT_REPAIR_IF_WITHIN`) and ``"rebalance"`` (a full
    re-execution).  Records of controlled epochs carry the policy name
    ``"controller"``.

    Attributes
    ----------
    target_pqos:
        The interactivity level the operator wants to maintain.
    repair_slack:
        If the stale pQoS is below ``target_pqos`` but within ``repair_slack``
        of it, the cheap incremental repair is tried first.
    full_rebalance_every:
        Optional periodic full re-execution every N epochs regardless of pQoS
        (0 disables the periodic trigger).
    max_migration_cost_per_epoch:
        Migration budget (in the cost model's units).  A full re-execution
        whose zone moves would bill above this budget is demoted to the
        incremental repair, or to the stale assignment when the repair is no
        better — the explicit interactivity-vs-disruption trade-off.
        Infinite by default (migration-oblivious, the original behaviour);
        only meaningful together with a non-free
        :class:`~repro.dynamics.migration.MigrationCostModel`.
    """

    name: ClassVar[str] = "controller"

    target_pqos: float = 0.9
    repair_slack: float = 0.05
    full_rebalance_every: int = 0
    max_migration_cost_per_epoch: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.target_pqos <= 1.0:
            raise ValueError("target_pqos must lie in (0, 1]")
        if not self.repair_slack >= 0:
            raise ValueError("repair_slack must be non-negative")
        if self.full_rebalance_every < 0:
            raise ValueError("full_rebalance_every must be >= 0")
        if not self.max_migration_cost_per_epoch >= 0:
            raise ValueError("max_migration_cost_per_epoch must be >= 0")

    @property
    def migration_budget(self) -> float:
        """The budget under the name the engine reads for every schedule."""
        return self.max_migration_cost_per_epoch

    @property
    def repair_floor(self) -> float:
        """Lowest repaired pQoS kept instead of escalating to a re-execution."""
        return self.target_pqos - ACCEPT_REPAIR_IF_WITHIN

    def action_for_epoch(self, epoch: int) -> None:
        """Deferred: the action depends on the carried-over pQoS."""
        return None

    def action_after(self, epoch: int, pqos_stale: float) -> str:
        """The action at ``epoch`` (0-based) given the carried-over pQoS."""
        if self.full_rebalance_every > 0 and (epoch + 1) % self.full_rebalance_every == 0:
            return "rebalance"
        if pqos_stale >= self.target_pqos:
            return "none"
        if pqos_stale >= self.target_pqos - self.repair_slack:
            return "repair"
        return "rebalance"

    def demoted_action(self, pqos_repaired: float, pqos_stale: float) -> str:
        """What replaces a re-execution over the migration budget."""
        return "repair" if pqos_repaired >= pqos_stale else "none"


def make_policy(
    policy: Union[str, PolicySchedule, RebalancePolicy],
    period: Optional[int] = None,
    migration_budget: Optional[float] = None,
) -> Union[PolicySchedule, RebalancePolicy]:
    """Normalise a policy name (or an existing schedule) into a schedule.

    Accepted names: ``"reexecute"``, ``"incremental"``, ``"warm_start"``,
    ``"every_k_epochs"`` (period taken from the ``period`` argument) and the
    literal spelling ``"every_<k>_epochs"`` (e.g. ``"every_5_epochs"``).
    ``every_k_epochs`` re-executes on each k-th epoch and repairs
    incrementally in between.  ``migration_budget`` (cost units per epoch)
    caps the migration bill of any re-execution the schedule triggers; see
    :class:`PolicySchedule`.  A :class:`PolicySchedule` or
    :class:`RebalancePolicy` is returned unchanged.
    """
    if isinstance(policy, (PolicySchedule, RebalancePolicy)):
        return policy
    budget = math.inf if migration_budget is None else float(migration_budget)
    name = str(policy).strip().lower()
    if name in POLICY_ACTIONS:
        return PolicySchedule(name=name, action=name, migration_budget=budget)
    match = _EVERY_K_RE.match(name)
    if match:
        period = int(match.group(1))
    if name == "every_k_epochs" or match:
        if not period or period < 1:
            raise ValueError(
                "policy 'every_k_epochs' needs a positive period (e.g. period=5 "
                "or the spelling 'every_5_epochs')"
            )
        return PolicySchedule(
            name=f"every_{period}_epochs",
            action="incremental",
            period=period,
            migration_budget=budget,
        )
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
