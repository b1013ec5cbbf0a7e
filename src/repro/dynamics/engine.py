"""Churn simulation engine.

Drives repeated churn epochs over a scenario and records, for each epoch and
each algorithm, the paper's measurement points (before / after / re-executed)
plus the repair policies added by this reproduction.  A single epoch with the
default :class:`~repro.dynamics.churn.ChurnSpec` reproduces the paper's
Table 3; running many epochs turns it into a longitudinal study of how
assignments age under sustained churn.

The engine is built for long runs:

* **Delta world advance** — each epoch advances a mutable
  :class:`SimulationState` with :meth:`~repro.world.scenario.DVEScenario.apply_server_delta`
  and :meth:`~repro.world.scenario.DVEScenario.apply_churn_delta`, reusing the
  surviving clients' delay rows instead of rebuilding the full client×server
  matrix, and aliases the new scenario's arrays as the next instance instead
  of re-validating them.  The result is bit-identical to rebuilding the
  world with :meth:`~repro.world.scenario.DVEScenario.with_servers` /
  :meth:`~repro.world.scenario.DVEScenario.with_population`.
* **Policy schedules** — :class:`~repro.dynamics.policies.PolicySchedule`
  decides per epoch whether to re-execute the algorithm from scratch, repair
  incrementally (contact phase only), warm-start the local search from the
  carried-over assignment, or re-execute only every k-th epoch.  A
  :class:`~repro.dynamics.policies.RebalancePolicy` instead picks the action
  from the carried-over pQoS (the rebalance controller's trigger).
* **Streaming records** — :meth:`ChurnSimulator.stream` is a generator, so a
  thousand-epoch run can be consumed (CSV row by CSV row, streaming summary
  statistics) without ever holding all records in memory.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import InitVar, dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.assignment import Assignment
from repro.core.local_search import warm_start_refine
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnBatch, ChurnSpec, generate_churn
from repro.dynamics.degradation import AdmissionPolicy, AdmissionStats
from repro.dynamics.events import ChurnResult, apply_churn
from repro.dynamics.infrastructure import (
    ServerChurnResult,
    ServerChurnSpec,
    apply_server_churn,
    generate_server_churn,
)
from repro.dynamics.measurement import (
    carried_qos_count,
    check_measurement_backend,
    ensure_measures,
    measured_pqos,
    measured_utilization,
    stash_for,
)
from repro.dynamics.migration import MigrationCharge, MigrationCostModel, charge_zone_moves
from repro.dynamics.policies import (
    PolicySchedule,
    RebalancePolicy,
    carry_over_assignment,
    incremental_reassign,
    make_policy,
    reassign,
    remap_assignment_servers,
)
from repro.dynamics.scenarios import (
    EpochPlan,
    ScenarioRuntime,
    ScenarioTimeline,
    build_timeline,
)
from repro.utils.arena import EpochArena
from repro.utils.rng import SeedLike, as_seed_sequence, reserve_seeds, spawn_seeds
from repro.world.distributions import ZoneSamplingPlan
from repro.world.scenario import DVEScenario

__all__ = ["EpochRecord", "SimulationState", "ChurnSimulator", "EpochSession"]

_NAN = float("nan")


@dataclass(frozen=True)
class EpochRecord:
    """Per-algorithm pQoS (and utilisation) around one churn epoch.

    ``pqos_before`` is measured on the pre-churn population, ``pqos_after`` on
    the post-churn population with the stale assignment, ``pqos_reexecuted``
    after running the algorithm from scratch, and ``pqos_incremental`` after
    the cheap contact-only repair.  ``pqos_adopted`` / ``utilization_adopted``
    describe the assignment the policy actually kept for the next epoch;
    measurement points the epoch's policy action did not compute are NaN.

    ``zones_migrated`` / ``clients_migrated`` / ``migration_cost`` charge the
    adopted assignment's zone moves relative to the pre-churn assignment
    (including evacuations forced by departing servers) under the engine's
    :class:`~repro.dynamics.migration.MigrationCostModel`, so disruption can
    be compared across policies from the CSV stream alone.

    ``shard_id`` addresses the record within a federated multi-shard run
    (:class:`~repro.dynamics.federation_engine.FederatedSimulator`); the
    default ``-1`` means "whole system / unsharded" and is deliberately NOT
    part of :data:`FIELDS`, so the classic ``simulate --csv`` stream stays
    byte-identical — federated consumers use :data:`FEDERATED_FIELDS`.

    ``clients_degraded`` / ``capacity_deficit`` report the scenario layer's
    graceful degradation (:mod:`repro.dynamics.degradation`): how many clients
    sit in the degraded pool after this epoch's admission control, and the
    pre-shedding demand overshoot in bits/s.  Like ``shard_id`` they are
    additive — absent from :data:`FIELDS` so classic CSV headers stay frozen;
    scenario consumers use :data:`SCENARIO_FIELDS`.

    ``action`` is the action the policy actually took this epoch —
    ``reexecute`` / ``incremental`` / ``warm_start`` for a schedule (a
    re-execution demoted by the migration budget reads ``incremental``) and
    ``none`` / ``repair`` / ``rebalance`` for the rebalance controller.  It is
    empty on federation aggregates, whose shards may act differently, and
    like ``shard_id`` it is in none of the column tuples.
    """

    epoch: int
    algorithm: str
    pqos_before: float
    pqos_after: float
    pqos_reexecuted: float
    pqos_incremental: float
    utilization_before: float
    utilization_reexecuted: float
    num_clients_before: int
    num_clients_after: int
    policy: str = "reexecute"
    pqos_adopted: float = _NAN
    utilization_adopted: float = _NAN
    num_servers_after: int = 0
    zones_migrated: int = 0
    clients_migrated: int = 0
    migration_cost: float = 0.0
    shard_id: int = -1
    clients_degraded: int = 0
    capacity_deficit: float = 0.0
    action: str = ""

    #: CSV / JSON column order used by the ``simulate`` CLI and benchmarks.
    #: Frozen for backward compatibility: ``shard_id`` is intentionally absent
    #: (unsharded output predates federation and must not change).
    FIELDS = (
        "epoch",
        "algorithm",
        "policy",
        "num_clients_before",
        "num_clients_after",
        "num_servers_after",
        "pqos_before",
        "pqos_after",
        "pqos_reexecuted",
        "pqos_incremental",
        "pqos_adopted",
        "utilization_before",
        "utilization_reexecuted",
        "utilization_adopted",
        "zones_migrated",
        "clients_migrated",
        "migration_cost",
    )

    #: Column order for federated streams: the shard address, then the classic
    #: measurement columns (so a federated CSV is the classic CSV plus one
    #: leading shard column).
    FEDERATED_FIELDS = ("shard_id", *FIELDS)

    #: Column order for scenario streams: the classic measurement columns plus
    #: the trailing degradation columns (so a scenario CSV is the classic CSV
    #: with two extra columns on the right).
    SCENARIO_FIELDS = (*FIELDS, "clients_degraded", "capacity_deficit")

    def row(self, fields: Sequence[str] = FIELDS) -> list:
        """The record as a flat list in ``fields`` order (default :data:`FIELDS`)."""
        return [getattr(self, name) for name in fields]


@dataclass
class SimulationState:
    """Mutable state of a longitudinal churn simulation.

    Holds the current scenario / instance snapshot, each algorithm's live
    assignment, and the session's :class:`~repro.utils.arena.EpochArena`, so
    per-epoch transients (the carried-over contact array, the delay matrix
    double-buffer) do not allocate afresh every epoch.
    """

    scenario: DVEScenario
    instance: CAPInstance
    assignments: Dict[str, Assignment]
    #: Cached (pQoS, utilisation) of each algorithm's current assignment on the
    #: current instance — the next epoch's "before" measurement, carried
    #: forward so it is never recomputed (it is bit-identical by construction).
    measures: Dict[str, tuple] = field(default_factory=dict)
    epoch: int = field(init=False, default=0)
    #: Per-session scratch arena: all recurring per-epoch buffers (delay
    #: matrix double-buffer, population arrays, demand vectors, carried
    #: contacts, repair work arrays) recycle through it.
    arena: EpochArena = field(init=False, default_factory=EpochArena, repr=False)


@dataclass
class ChurnSimulator:
    """Simulates repeated churn epochs for a set of algorithms.

    Parameters
    ----------
    scenario:
        The initial scenario (typically built with correlation 0, as in the
        paper's dynamics experiment).
    algorithms:
        Names of registered CAP solvers to track.
    churn_spec:
        Amount of client churn per epoch.
    server_churn_spec:
        Optional infrastructure churn per epoch (servers joining / leaving,
        capacity drift).  ``None`` (or an all-zero spec) keeps the paper's
        fixed fleet — and keeps every record bit-identical to the
        pre-elastic engine, because the extra RNG sub-stream is only spawned
        when infrastructure churn is active.
    migration_cost:
        Price model for zone moves; every adopted assignment is charged
        relative to the previous epoch's assignment and the bill is streamed
        in the records.  The default model is free.
    seed:
        Master seed; every epoch and every algorithm's randomised choices get
        independent sub-streams.
    policy:
        Per-epoch repair action schedule — a name accepted by
        :func:`~repro.dynamics.policies.make_policy` (``"reexecute"``,
        ``"incremental"``, ``"warm_start"``, ``"every_k_epochs"`` with
        ``policy_period``), a :class:`~repro.dynamics.policies.PolicySchedule`,
        or a :class:`~repro.dynamics.policies.RebalancePolicy` (the rebalance
        controller's pQoS-threshold trigger).
    policy_period:
        Period for the ``every_k_epochs`` policy (ignored otherwise).
    measurement_backend:
        Accepted for existing callers and ignored: ``"incremental"`` (or
        ``None``) is the only value, and the removed full-recompute path
        (``"full"``) raises ``ValueError``.  Every measurement point is
        served from the solvers' measurement stash (:mod:`repro.core.measures`).
    scenario_timeline:
        Optional incident timeline (:mod:`repro.dynamics.scenarios`) — a
        :class:`~repro.dynamics.scenarios.ScenarioTimeline`, a spec string /
        library name, or a sequence of them (normalised via
        :func:`~repro.dynamics.scenarios.build_timeline`).  When set, each
        epoch's churn, fleet capacities and delays follow the timeline, and
        every churn batch passes through admission control so infeasible
        epochs shed clients to a degraded pool instead of raising.  The
        scenario RNG stream is only spawned when a timeline is active, so
        classic runs stay byte-identical.  Mutually exclusive with an active
        ``server_churn_spec`` (the timeline owns the fleet's capacity story).
    admission_policy:
        Shedding/re-admission thresholds for the scenario layer
        (:class:`~repro.dynamics.degradation.AdmissionPolicy`); ``None`` uses
        the defaults.  Ignored without a timeline.

    Each session recycles its recurring per-epoch buffers (delay matrix,
    population arrays, demand vector, carried contacts, repair work arrays)
    through an :class:`EpochArena`, and churn generation reuses a
    precomputed :class:`~repro.world.distributions.ZoneSamplingPlan`.
    A state's scenario / instance arrays are recycled once the state has
    advanced past them: snapshot with ``.copy()``.
    """

    scenario: DVEScenario
    algorithms: List[str]
    churn_spec: ChurnSpec = field(default_factory=ChurnSpec)
    server_churn_spec: Optional[ServerChurnSpec] = None
    migration_cost: MigrationCostModel = field(default_factory=MigrationCostModel)
    seed: SeedLike = None
    policy: Union[str, PolicySchedule, RebalancePolicy] = "reexecute"
    policy_period: int = 0
    policy_migration_budget: Optional[float] = None
    measurement_backend: InitVar[Optional[str]] = None
    scenario_timeline: Union[None, str, Iterable, ScenarioTimeline] = None
    admission_policy: Optional[AdmissionPolicy] = None

    def __post_init__(self, measurement_backend: Optional[str] = None) -> None:
        check_measurement_backend(measurement_backend)
        if self.scenario_timeline is not None and not isinstance(
            self.scenario_timeline, ScenarioTimeline
        ):
            self.scenario_timeline = build_timeline(self.scenario_timeline)
        if self._scenario_active and self._server_churn_active:
            raise ValueError(
                "scenario_timeline cannot be combined with an active "
                "server_churn_spec: the timeline owns the fleet's capacity story"
            )

    @property
    def _server_churn_active(self) -> bool:
        """True when the epoch loop must generate infrastructure churn."""
        return self.server_churn_spec is not None and not self.server_churn_spec.is_static

    @property
    def _scenario_active(self) -> bool:
        """True when an incident timeline disturbs the epochs."""
        return self.scenario_timeline is not None and not self.scenario_timeline.is_empty

    # ------------------------------------------------------------------ #
    def initial_state(self, seed: SeedLike) -> SimulationState:
        """Solve every algorithm on the initial scenario."""
        solve_seeds = spawn_seeds(seed, len(self.algorithms))
        instance = CAPInstance.from_scenario(self.scenario)
        assignments = {
            name: registry_solve(instance, name, seed=solve_seeds[i])
            for i, name in enumerate(self.algorithms)
        }
        # Seed the stash for solvers that do not produce one (baselines), so
        # epoch 0 already takes the O(churn) delta path.
        for a in assignments.values():
            ensure_measures(a, instance)
        measures = {
            name: (measured_pqos(a, instance), measured_utilization(a, instance))
            for name, a in assignments.items()
        }
        return SimulationState(
            scenario=self.scenario, instance=instance, assignments=assignments, measures=measures
        )

    def _advance_world(
        self,
        state: SimulationState,
        churn: ChurnResult,
        server_churn: Optional[ServerChurnResult] = None,
    ) -> tuple[DVEScenario, CAPInstance]:
        """Post-churn scenario and instance.

        With infrastructure churn the server delta is applied first (on the
        pre-churn population), then the client delta.
        """
        scenario = state.scenario
        if server_churn is not None:
            if server_churn.is_identity:
                # Capacity-only delta (drift, or a federation capacity
                # re-slice): the server index space is unchanged, so the delay
                # matrices carry over by identity instead of being re-gathered
                # column by column.
                scenario = scenario.with_server_capacities(server_churn.servers.capacities)
            else:
                scenario = scenario.apply_server_delta(server_churn)
        new_scenario = scenario.apply_churn_delta(churn, state.arena)
        if state.instance.mirrors_arrays_of(state.scenario):
            # The state only ever advanced through the delta pipeline, so the
            # freshly delta-gathered scenario arrays ARE the new instance's
            # arrays — alias them instead of re-gathering and re-validating
            # the client×server matrix a second time per epoch.
            return new_scenario, CAPInstance.from_scenario_unchecked(new_scenario)
        # An instance that does not mirror its scenario (the caller's initial
        # snapshot was built with other dtypes) gets one validated build.
        return new_scenario, CAPInstance.from_scenario(new_scenario)

    # ------------------------------------------------------------------ #
    def session(self, num_epochs: int = 1) -> "EpochSession":
        """A step-wise driver over this simulator's epochs.

        :meth:`stream` consumes a session internally; external drivers (the
        federation engine) use the session directly so they can interleave
        work — capacity re-slices from a cross-shard arbiter — between
        epochs without forking the epoch semantics.
        """
        return EpochSession(self, num_epochs)

    def stream(self, num_epochs: int = 1) -> Iterator[EpochRecord]:
        """Run ``num_epochs`` churn epochs, yielding records as they complete.

        Records stream out epoch by epoch, so arbitrarily long runs can be
        consumed with O(algorithms) record memory; the session holds one
        seed and derives each epoch's RNG stream when the epoch runs, so
        starting a long run holds no per-epoch state either.  Each algorithm
        evolves its own assignment: after every epoch the assignment the
        policy adopted becomes the algorithm's current assignment for the
        next epoch.
        """
        session = self.session(num_epochs)
        while not session.done:
            yield from session.run_epoch()

    def run(self, num_epochs: int = 1) -> List[EpochRecord]:
        """Eager list version of :meth:`stream` (one record per epoch × algorithm)."""
        return list(self.stream(num_epochs))


# ---------------------------------------------------------------------- #
# The epoch's phases, in the order EpochSession.run_epoch calls them.  They
# call the engine's collaborators through this module's names, so the test
# oracles and the benchmark tracer, which rebind those names, see each call.

#: Keys of the session's per-phase wall time and allocation profiles.
_PHASES = ("churn_gen", "advance", "solve", "measure")


class _EpochChurn(NamedTuple):
    """The epoch's client and fleet deltas (phase 1)."""

    plan: Optional[EpochPlan]
    batch: ChurnBatch
    churn: ChurnResult
    server_churn: Optional[ServerChurnResult]
    admission: Optional[AdmissionStats]
    reassign_seeds: Sequence[SeedLike]


class _EpochContext(NamedTuple):
    """What the per-algorithm phases of one epoch read."""

    epoch: int
    drawn: _EpochChurn
    instance: CAPInstance  # pre-churn
    new_instance: CAPInstance  # post-churn, delay overlay applied
    overlay_active: bool
    schedule: Union[PolicySchedule, RebalancePolicy]
    migration_cost: MigrationCostModel
    arena: EpochArena
    clock: Callable  # EpochSession._clocked


class _Carried(NamedTuple):
    """One algorithm's assignment carried across the churn (phase 3)."""

    old: Assignment  # the previous epoch's adopted assignment
    base: Assignment  # the pre-churn assignment on the post-churn fleet
    after_pqos: float
    assignment: Optional[Assignment]  # built only when the action needs it
    loads: Optional[np.ndarray]  # the carried loads the warm start refines from


class _Action(NamedTuple):
    """The policy action one algorithm took (phase 4)."""

    action: str
    assignment: Assignment
    reexec_pqos: float
    reexec_util: float
    incr_pqos: float
    charge: Optional[MigrationCharge]  # the adopted bill, when the budget check made it


def _generate_epoch_churn(session: EpochSession, capacities: Optional[np.ndarray]) -> _EpochChurn:
    """Phase 1: plan the epoch, then draw and apply its client churn and fleet delta."""
    sim, state, runtime = session.simulator, session.state, session.scenario_runtime
    scenario = state.scenario
    plan = admission = None
    if runtime is not None:
        # The timeline consumes any external capacity delta: the plan's
        # fleet snapshot re-bases on it before gating, so a federation
        # re-slice and a mid-outage epoch compose in one delta.
        plan = runtime.plan_epoch(state.epoch, sim.churn_spec, capacity_delta=capacities)
        capacities = None
    # Epoch streams: churn, then server churn (only when the fleet churns, so
    # static-fleet runs replay the RNG layout, and records, of the
    # pre-elastic engine), then one re-execution stream per algorithm, each
    # derived only if its action runs.
    num_fixed = 2 if sim._server_churn_active else 1
    streams = reserve_seeds(session._epoch_seeds[state.epoch], num_fixed + len(sim.algorithms))
    churn_spec = sim.churn_spec if plan is None else plan.churn_spec
    batch = generate_churn(scenario, churn_spec, seed=streams[0], zone_plan=session._zone_plan)
    if runtime is not None:
        batch, admission = runtime.prepare_batch(plan, batch, scenario.population)
    churn = apply_churn(scenario.population, batch, state.arena)
    server_churn: Optional[ServerChurnResult] = None
    if sim._server_churn_active:
        num_nodes = scenario.topology.num_nodes
        server_batch = generate_server_churn(
            scenario.servers, sim.server_churn_spec, num_nodes=num_nodes, seed=streams[1]
        )
        server_churn = apply_server_churn(scenario.servers, server_batch)
    elif plan is not None:
        server_churn = plan.server_churn
    elif capacities is not None:
        server_churn = ServerChurnResult.capacity_only(scenario.servers.nodes, capacities)
    return _EpochChurn(plan, batch, churn, server_churn, admission, streams[num_fixed:])


def _advance_epoch_world(
    session: EpochSession, drawn: _EpochChurn
) -> tuple[DVEScenario, CAPInstance, CAPInstance]:
    """Phase 2: the post-churn world, and the instance the epoch measures on.

    Delay overlays (link degradation) produce a *separate* effective
    instance for this epoch's measurements and repairs; the clean instance
    keeps advancing through the delta pipeline, so overlays never disturb
    the ``mirrors_arrays_of`` aliasing invariant.
    """
    sim, state, runtime = session.simulator, session.state, session.scenario_runtime
    new_scenario, new_instance = sim._advance_world(state, drawn.churn, drawn.server_churn)
    if runtime is None:
        return new_scenario, new_instance, new_instance
    return new_scenario, new_instance, runtime.overlay_instance(drawn.plan, new_instance)


def _carry(
    ctx: _EpochContext, base: Assignment, deferred: bool, loads: Optional[np.ndarray]
) -> Assignment:
    """The carried assignment, its contacts in the scratch buffer unless ``deferred``."""
    out = None if deferred else ctx.arena.scratch("carry_contacts", ctx.new_instance.num_clients)
    return carry_over_assignment(base, ctx.drawn.churn, ctx.new_instance, out=out, loads_out=loads)


def _carry_over(ctx: _EpochContext, old: Assignment, action: Optional[str]) -> _Carried:
    """Phase 3: carry one algorithm's assignment across the churn and measure it.

    With infrastructure churn the old assignment first crosses to the new
    server index space (departed hosts force zone evacuations); repairs
    start from the remapped assignment.  The "after" point is a delta update
    of the previous epoch's within-bound count from the churn batch
    (:mod:`repro.dynamics.measurement`) whenever the previous epoch left a
    stash and the fleet kept its indices; the carried assignment is then
    built only when the action needs it (the warm start refines it, the
    controller may adopt it).  A re-indexed fleet or a delay overlay changes
    the survivors' delays too, so those epochs measure the carried
    assignment.
    """
    drawn, instance, clock = ctx.drawn, ctx.new_instance, ctx.clock
    server_churn = drawn.server_churn
    base = old
    if server_churn is not None:
        base = remap_assignment_servers(old, server_churn, instance, ctx.instance.client_zones)
    # The warm-start repair starts from the loads the carry-over reduces for
    # its capacity flag instead of reducing the same arrays again.
    loads = np.empty(instance.num_servers) if action == "warm_start" else None
    carried = None
    stash = None if ctx.overlay_active else stash_for(old, ctx.instance)
    if stash is not None and (server_churn is None or server_churn.is_identity):
        count = clock("measure", carried_qos_count, stash, base, drawn.batch, drawn.churn, instance)
        after_pqos = count / instance.num_clients if instance.num_clients else 1.0
        if action == "warm_start":
            carried = clock("measure", _carry, ctx, base, False, loads)
    else:
        carried = clock("measure", _carry, ctx, base, action is None, loads)
        after_pqos = clock("measure", measured_pqos, carried, instance)
    return _Carried(old, base, after_pqos, carried, loads)


def _repair(ctx: _EpochContext, base: Assignment) -> tuple[Assignment, float]:
    """The incremental (contact-only) repair and its pQoS."""
    repaired = ctx.clock("solve", incremental_reassign, base, ctx.new_instance)
    return repaired, ctx.clock("measure", measured_pqos, repaired, ctx.new_instance)


def _apply_policy(
    ctx: _EpochContext, name: str, carried: _Carried, action: Optional[str], seed_index: int
) -> _Action:
    """Phase 4: repair, re-execute or warm start, as the policy decides.

    ``action`` is ``None`` when the schedule defers its choice to the
    carried-over pQoS (:meth:`RebalancePolicy.action_after`).  The
    algorithm's re-execution stream ``ctx.drawn.reassign_seeds[seed_index]``
    is derived only when the action re-executes.
    """
    schedule, instance, clock = ctx.schedule, ctx.new_instance, ctx.clock
    if action is None:
        action = schedule.action_after(ctx.epoch, carried.after_pqos)
    reexec_pqos = reexec_util = incr_pqos = _NAN
    charge, repaired = None, None
    if action == "repair":
        repaired, incr_pqos = _repair(ctx, carried.base)
        if incr_pqos < schedule.repair_floor:
            action = "rebalance"  # the repair missed the target: escalate
    if action in ("reexecute", "rebalance"):
        seed = ctx.drawn.reassign_seeds[seed_index]
        adopted = clock("solve", partial(reassign, instance, name, seed=seed))
        reexec_pqos = clock("measure", measured_pqos, adopted, instance)
        reexec_util = clock("measure", measured_utilization, adopted, instance)
        if math.isfinite(schedule.migration_budget):
            # Migration-aware policy: a re-execution whose zone moves bill
            # above the budget is demoted — to the incremental repair, which
            # keeps the zone map (only forced evacuations remain), or for the
            # controller to the stale assignment when the repair is no better.
            charge = _charge_migration(ctx, carried.old, adopted)
            if charge.cost > schedule.migration_budget:
                charge = None  # the adopted assignment changes; re-bill later
                if repaired is None:
                    repaired, incr_pqos = _repair(ctx, carried.base)
                action = schedule.demoted_action(incr_pqos, carried.after_pqos)
        if action == "reexecute" and schedule.period == 0 and math.isnan(incr_pqos):
            # The pure re-execute policy also reports the incremental repair
            # as Table 3's extension column; scheduled policies and the
            # controller skip it to keep the epoch cost proportional to the
            # action.
            incr_pqos = _repair(ctx, carried.base)[1]
    if action in ("incremental", "repair"):
        if repaired is None:
            repaired, incr_pqos = _repair(ctx, carried.base)
        adopted = repaired
    elif action == "none":
        # Only the controller keeps the stale assignment, and its choice was
        # deferred: the carried contacts must not alias the scratch buffer.
        adopted = carried.assignment
        if adopted is None:
            adopted = clock("measure", _carry, ctx, carried.base, True, None)
    elif action == "warm_start":
        # Budget one move per client: heavy churn can push far more than the
        # refiner's default 200 clients over the bound, and a tight cap would
        # truncate the repair and skew the policy comparison.  The zone-move
        # sweep joins in only when the *infrastructure* churned, the epochs
        # whose hosting itself is wrong (evacuated zones, drifted
        # capacities); it would be affordable on client-only epochs too, but
        # running it there would change the records.
        refine = partial(
            warm_start_refine,
            instance,
            carried.assignment,
            consider_zone_moves=ctx.drawn.server_churn is not None,
            max_iterations=max(200, instance.num_clients),
            loads=carried.loads,
        )
        adopted = clock("solve", refine).assignment
    elif action not in ("reexecute", "rebalance"):  # pragma: no cover
        raise ValueError(f"unknown policy action {action!r}")
    return _Action(action, adopted, reexec_pqos, reexec_util, incr_pqos, charge)


def _measure_adopted(
    ctx: _EpochContext, name: str, carried: _Carried, act: _Action
) -> tuple[Assignment, float, float]:
    """Phase 5: the adopted assignment, stashed for the next epoch, its pQoS and utilisation."""
    adopted, instance, clock = act.assignment, ctx.new_instance, ctx.clock
    if act.action in ("reexecute", "rebalance"):
        pqos, util = act.reexec_pqos, act.reexec_util
    else:
        if act.action == "warm_start":
            pqos = clock("measure", measured_pqos, adopted, instance)
        else:
            pqos = carried.after_pqos if act.action == "none" else act.incr_pqos
        util = clock("measure", measured_utilization, adopted, instance)
    # Re-label with the base algorithm name: repair suffixes like
    # " (carried over)+ws" would otherwise compound every epoch.
    adopted = adopted.with_algorithm(name)
    # Guarantee the adopted assignment carries a stash into the next epoch
    # (solvers that do not stash — the baselines — pay one full pass here so
    # the next carried point stays O(churn)).
    clock("measure", ensure_measures, adopted, instance)
    return adopted, pqos, util


def _charge_migration(ctx: _EpochContext, old: Assignment, adopted: Assignment) -> MigrationCharge:
    """Bill the adopted assignment's zone moves against the pre-churn map."""
    server_churn = ctx.drawn.server_churn
    return charge_zone_moves(
        ctx.migration_cost,
        old.zone_to_server,
        adopted.zone_to_server,
        ctx.new_instance.zone_populations(),
        server_old_to_new=None if server_churn is None else server_churn.old_to_new,
    )


def _bill_and_record(
    ctx: _EpochContext, name: str, before: tuple, carried: _Carried, act: _Action, adopted: tuple
) -> EpochRecord:
    """Phase 6: bill the adopted assignment's zone moves and build the record.

    ``before`` is the previous epoch's adopted (pQoS, utilisation) on the
    unchanged instance — carried forward, not recomputed.
    """
    assignment, pqos, util = adopted
    charge = act.charge
    if charge is None:
        charge = _charge_migration(ctx, carried.old, assignment)
    admission = ctx.drawn.admission
    return EpochRecord(
        epoch=ctx.epoch,
        algorithm=name,
        pqos_before=before[0],
        pqos_after=carried.after_pqos,
        pqos_reexecuted=act.reexec_pqos,
        pqos_incremental=act.incr_pqos,
        utilization_before=before[1],
        utilization_reexecuted=act.reexec_util,
        num_clients_before=ctx.instance.num_clients,
        num_clients_after=ctx.new_instance.num_clients,
        policy=ctx.schedule.name,
        pqos_adopted=pqos,
        utilization_adopted=util,
        num_servers_after=ctx.new_instance.num_servers,
        zones_migrated=charge.zones_migrated,
        clients_migrated=charge.clients_migrated,
        migration_cost=charge.cost,
        clients_degraded=0 if admission is None else admission.clients_degraded,
        capacity_deficit=0.0 if admission is None else admission.capacity_deficit,
        action=act.action,
    )


class EpochSession:
    """Step-wise execution of a :class:`ChurnSimulator`, one epoch per call.

    Holds the per-run state — the mutable :class:`SimulationState`, the
    resolved policy schedule and the session's seed — and exposes the epoch
    as a unit of work, so a higher-level driver can do things *between*
    epochs.  The federation engine uses this to apply cross-shard capacity
    arbitration: a capacity re-slice enters the next epoch as an
    identity-mapped :class:`~repro.dynamics.infrastructure.ServerChurnResult`,
    flowing through the exact world-advance / remap / repair / billing path
    that generated infrastructure churn takes.

    RNG layout: the seed's first children solve the initial assignments (one
    per algorithm), the next ``num_epochs`` are the epoch streams and, with
    an active timeline, one more seeds the scenario runtime.  The epoch
    streams are reserved, not built: epoch ``e``'s stream is derived by its
    spawn key when epoch ``e`` runs (:func:`~repro.utils.rng.reserve_seeds`),
    and within it the churn, server-churn and per-algorithm re-execution
    streams become Generators only if they are drawn from.  A caller's seed
    sequence or Generator still advances by exactly the children above.  An
    externally supplied capacity delta consumes no randomness, so supplying
    one never perturbs the churn streams.
    """

    def __init__(self, simulator: ChurnSimulator, num_epochs: int):
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        self.simulator = simulator
        self.schedule = make_policy(
            simulator.policy,
            period=simulator.policy_period or None,
            migration_budget=simulator.policy_migration_budget,
        )
        root = as_seed_sequence(simulator.seed)
        self.state = simulator.initial_state(root)
        self._epoch_seeds = reserve_seeds(root, num_epochs)
        self.num_epochs = num_epochs
        #: Scenario timeline executor; seeded *after* the epoch streams and
        #: only when a timeline is active, so classic runs replay the exact
        #: RNG layout (and records) of the scenario-free engine.
        self.scenario_runtime: Optional[ScenarioRuntime] = None
        if simulator._scenario_active:
            self.scenario_runtime = ScenarioRuntime(
                simulator.scenario_timeline,
                simulator.scenario,
                num_epochs,
                spawn_seeds(root, 1)[0],
                admission=simulator.admission_policy,
            )
        #: Cumulative per-phase wall time (seconds) across all epochs run so
        #: far: ``churn_gen`` / ``advance`` / ``solve`` / ``measure``.  The
        #: ``simulate --profile`` flag prints this breakdown.
        self.phase_seconds: Dict[str, float] = dict.fromkeys(_PHASES, 0.0)
        #: Same breakdown for the most recent epoch only.
        self.last_phase_seconds: Dict[str, float] = dict.fromkeys(_PHASES, 0.0)
        #: When True *and* ``tracemalloc`` is tracing, each epoch also records
        #: the tracemalloc **peak** bytes allocated per phase (transient
        #: allocations included, unlike a net before/after diff) into
        #: ``phase_alloc_bytes`` (cumulative) / ``last_phase_alloc_bytes``.
        #: The probe costs wall time, so keep it off for pure-throughput runs.
        self.alloc_profile: bool = False
        self.phase_alloc_bytes: Dict[str, int] = dict.fromkeys(_PHASES, 0)
        self.last_phase_alloc_bytes: Dict[str, int] = dict.fromkeys(_PHASES, 0)
        self._tracing_allocs = False
        #: Precomputed zone-sampling state for churn generation — the world's
        #: topology / zone count / distribution spec never change within a
        #: session, so the per-epoch region bookkeeping is paid once.
        self._zone_plan = ZoneSamplingPlan.build(
            simulator.scenario.topology,
            simulator.scenario.num_zones,
            simulator.scenario.config.distribution_spec,
        )

    @property
    def done(self) -> bool:
        """True when every scheduled epoch has run."""
        return self.state.epoch >= self.num_epochs

    def _clocked(self, phase: str, fn: Callable, *args):
        """Call ``fn(*args)`` and charge its wall time to this epoch's ``phase``.

        The session's phase timer: no other engine code reads the clock or
        tracemalloc.  While allocations are profiled, the tracemalloc peak
        the call reaches above its starting size is charged too.
        """
        if self._tracing_allocs:
            tracemalloc.reset_peak()
            alloc_base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        result = fn(*args)
        self.last_phase_seconds[phase] += time.perf_counter() - start
        if self._tracing_allocs:
            peak = tracemalloc.get_traced_memory()[1]
            self.last_phase_alloc_bytes[phase] += max(0, peak - alloc_base)
        return result

    def run_epoch(self, capacity_delta: Optional[np.ndarray] = None) -> List[EpochRecord]:
        """Run the next epoch and return its records (one per algorithm).

        Parameters
        ----------
        capacity_delta:
            Optional ``(num_servers,)`` replacement capacity vector applied
            to the fleet at the start of this epoch (a federation capacity
            re-slice).  Only capacities move, so assignments carry over index
            for index and any zone moves the repair then makes are billed as
            usual.  Mutually exclusive with the simulator's own
            ``server_churn_spec``: a federated shard's fleet is the arbiter's.
        """
        if self.done:
            raise ValueError(f"session already ran all {self.num_epochs} epochs")
        sim, state, clock = self.simulator, self.state, self._clocked
        if capacity_delta is not None:
            if sim._server_churn_active:
                raise ValueError(
                    "an external capacity delta cannot be combined with the "
                    "simulator's own server_churn_spec"
                )
            capacity_delta = np.asarray(capacity_delta, dtype=np.float64)
            if capacity_delta.shape != (state.scenario.num_servers,):
                raise ValueError(
                    f"capacity_delta must have shape ({state.scenario.num_servers},), "
                    f"got {capacity_delta.shape}"
                )
        self.last_phase_seconds = dict.fromkeys(_PHASES, 0.0)
        self.last_phase_alloc_bytes = dict.fromkeys(_PHASES, 0)
        self._tracing_allocs = self.alloc_profile and tracemalloc.is_tracing()

        drawn = clock("churn_gen", _generate_epoch_churn, self, capacity_delta)
        new_scenario, new_instance, effective = clock("advance", _advance_epoch_world, self, drawn)
        ctx = _EpochContext(
            epoch=state.epoch,
            drawn=drawn,
            instance=state.instance,
            new_instance=effective,
            overlay_active=effective is not new_instance,
            schedule=self.schedule,
            migration_cost=sim.migration_cost,
            arena=state.arena,
            clock=clock,
        )
        action = self.schedule.action_for_epoch(state.epoch)
        records, next_assignments, next_measures = [], {}, {}
        for i, name in enumerate(sim.algorithms):
            carried = _carry_over(ctx, state.assignments[name], action)
            act = _apply_policy(ctx, name, carried, action, i)
            adopted = _measure_adopted(ctx, name, carried, act)
            records.append(_bill_and_record(ctx, name, state.measures[name], carried, act, adopted))
            next_assignments[name] = adopted[0]
            next_measures[name] = adopted[1:]

        for phase in _PHASES:
            self.phase_seconds[phase] += self.last_phase_seconds[phase]
            self.phase_alloc_bytes[phase] += self.last_phase_alloc_bytes[phase]

        prev_scenario = state.scenario
        state.scenario = new_scenario
        state.instance = new_instance
        state.assignments = next_assignments
        state.measures = next_measures
        state.epoch += 1

        # Double-buffer hand-off: the previous epoch's derived arrays are now
        # unreachable from the advancing state, so their arena buffers return
        # to the pool for the next epoch to reuse.  The identity guards keep
        # arrays that carried over by reference (capacity-only fleet deltas
        # share the demands) live, and ``release_if_owned`` ignores externally
        # owned arrays (the caller's initial snapshot).
        arena = state.arena
        if prev_scenario.client_demands is not new_scenario.client_demands:
            arena.release_if_owned(prev_scenario.client_demands)
        prev_population = prev_scenario.population
        if prev_population is not new_scenario.population:
            if prev_population.nodes is not new_scenario.population.nodes:
                arena.release_if_owned(prev_population.nodes)
            if prev_population.zones is not new_scenario.population.zones:
                arena.release_if_owned(prev_population.zones)
        arena.release_if_owned(drawn.churn.old_to_new)
        return records

    def run_batch(self, k: int) -> List[EpochRecord]:
        """Run up to ``k`` epochs in one call, returning all their records.

        The batched fast path for throughput drivers: one Python call (and
        one result list) per ``k`` epochs instead of one generator resumption
        per epoch.  Stops early at the session's last scheduled epoch.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        records: List[EpochRecord] = []
        end = min(self.state.epoch + k, self.num_epochs)
        while self.state.epoch < end:
            records.extend(self.run_epoch())
        return records
