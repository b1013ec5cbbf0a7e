"""Federated simulation engine: N shards, one fleet, arbitration between epochs.

:class:`FederatedSimulator` drives a :class:`~repro.world.federation.FederatedWorld`
through churn epochs by *composing* the existing engine rather than forking
it: every shard runs its own :class:`~repro.dynamics.engine.ChurnSimulator`
(independent churn streams, its own policy-scheduled repairs, its own
:class:`~repro.dynamics.engine.SimulationState`), stepped one epoch at a time
through :class:`~repro.dynamics.engine.EpochSession`.  Between epochs a
:class:`~repro.core.arbitration.CapacityArbiter` converts the shards' demand /
overload signals into new per-shard capacity slices; each re-slice enters the
next epoch as an identity-mapped capacity delta, flowing through the exact
world-advance / repair / migration-billing path that infrastructure churn
takes — so arbitration-forced re-hosting is charged with the same
:class:`~repro.dynamics.migration.MigrationCostModel` semantics as any other
fleet change.

Records stream out per shard (``shard_id`` 0..N-1) followed by one aggregate
record per algorithm and epoch (``shard_id == -1``, the whole-system view:
client-weighted pQoS, capacity-weighted utilisation, summed migration bill).

**Federation = identity at N=1:** with a single shard and the static arbiter,
the record stream is bit-for-bit the stand-alone :class:`ChurnSimulator`'s —
the shard inherits the federation seed unchanged, the static arbiter never
produces a delta, and the session step API replays the classic RNG layout.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field
from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.arbitration import CapacityArbiter, ShardSignal, check_slices, make_arbiter
from repro.core.costs import initial_cost_matrix
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord, EpochSession
from repro.dynamics.measurement import check_measurement_backend, measured_server_loads
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import PolicySchedule
from repro.dynamics.scenarios import ScenarioTimeline, build_timeline
from repro.utils.rng import SeedLike, spawn_seeds
from repro.world.federation import FederatedWorld

__all__ = ["FederatedSimulator", "FederationProfile", "AGGREGATE_SHARD_ID"]

#: ``shard_id`` of the whole-system aggregate records (matches the unsharded
#: default of :class:`~repro.dynamics.engine.EpochRecord`).
AGGREGATE_SHARD_ID = -1

_NAN = float("nan")


def _nan_weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean over the non-NaN entries (NaN when none are finite).

    Per-shard measurement points can be NaN independently (e.g. a
    migration-budgeted schedule demotes the re-execution on one overloaded
    shard only), so the aggregate is taken over the shards that actually
    computed the point.
    """
    vals = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    mask = ~np.isnan(vals)
    if not mask.any():
        return _NAN
    total = float(w[mask].sum())
    if total <= 0:
        return float(vals[mask].mean())
    return float((vals[mask] * w[mask]).sum() / total)


@dataclass
class FederationProfile:
    """Cumulative runtime profile of a federated stream (all values seconds).

    Updated in place after every epoch of :meth:`FederatedSimulator.stream`
    and exposed as :attr:`FederatedSimulator.last_profile`; the ``federate
    --profile`` CLI flag prints it.  Per-shard lists are indexed by
    ``shard_id``.

    ``shard_wall_seconds`` is each shard's epoch-step wall time;
    ``shard_solve`` / ``shard_measure_seconds`` re-export the per-shard
    engine phase totals; ``arbiter_seconds`` covers signal collection, the
    arbitration decision and slice validation between epochs.
    """

    num_shards: int
    num_epochs: int = field(init=False, default=0)
    shard_wall_seconds: List[float] = field(init=False)
    shard_solve_seconds: List[float] = field(init=False)
    shard_measure_seconds: List[float] = field(init=False)
    arbiter_seconds: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.shard_wall_seconds = [0.0] * self.num_shards
        self.shard_solve_seconds = [0.0] * self.num_shards
        self.shard_measure_seconds = [0.0] * self.num_shards


@dataclass
class FederatedSimulator:
    """Simulates N federated shards with cross-shard capacity arbitration.

    Parameters
    ----------
    world:
        The federated world (shards sharing one topology and fleet).
    algorithms:
        Registered CAP solvers tracked in every shard.  The *first* name is
        the primary algorithm: its adopted assignments drive the arbitration
        signals (typical federations track exactly one).
    arbiter:
        A :class:`~repro.core.arbitration.CapacityArbiter` or one of the
        names accepted by :func:`~repro.core.arbitration.make_arbiter`
        (``"static"``, ``"proportional"``, ``"regret"``).
    churn_spec:
        Client churn per epoch — one spec for every shard, or a sequence
        with one spec per shard.
    migration_cost:
        Zone-move price model, applied inside every shard (arbitration-forced
        re-hosting is billed through the same model).
    seed:
        Master seed.  Each shard gets an independent sub-stream; a 1-shard
        federation inherits the seed *unchanged*, which is what makes
        "federation = identity at N=1" an exact, bit-for-bit statement.
    policy / policy_period / policy_migration_budget:
        Forwarded verbatim to every shard's
        :class:`~repro.dynamics.engine.ChurnSimulator`.  Each shard's records
        are composed from its running measurement aggregates, and the
        whole-system records from the shard records — per-client arrays are
        never re-reduced at the federation layer.
    measurement_backend:
        Accepted for existing callers and ignored: ``"incremental"`` (or
        ``None``) is the only value; ``"full"`` was removed and raises
        ``ValueError``.
    scenario_timeline:
        Optional incident timeline(s) (:mod:`repro.dynamics.scenarios`) — one
        timeline (or spec string / library name) applied to *every* shard, or
        a sequence with one entry per shard (``None`` entries leave that
        shard undisturbed).  Each shard runs its own
        :class:`~repro.dynamics.scenarios.ScenarioRuntime` over its capacity
        slice; arbitration re-slices compose with mid-incident gating inside
        the shard session.
    admission_policy:
        Shedding/re-admission thresholds forwarded to every shard.
    """

    world: FederatedWorld
    algorithms: List[str]
    arbiter: Union[str, CapacityArbiter] = "static"
    churn_spec: Union[ChurnSpec, Sequence[ChurnSpec]] = field(default_factory=ChurnSpec)
    migration_cost: MigrationCostModel = field(default_factory=MigrationCostModel)
    seed: SeedLike = None
    policy: Union[str, PolicySchedule] = "reexecute"
    policy_period: int = 0
    policy_migration_budget: Optional[float] = None
    measurement_backend: InitVar[Optional[str]] = None
    scenario_timeline: object = None
    admission_policy: object = None
    #: Runtime profile of the most recent :meth:`stream` (set on first epoch,
    #: updated in place after every epoch).
    last_profile: Optional[FederationProfile] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self, measurement_backend: Optional[str] = None) -> None:
        check_measurement_backend(measurement_backend)

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return self.world.num_shards

    def _shard_churn_specs(self) -> List[ChurnSpec]:
        if isinstance(self.churn_spec, ChurnSpec):
            return [self.churn_spec] * self.num_shards
        specs = list(self.churn_spec)
        if len(specs) != self.num_shards:
            raise ValueError(
                f"churn_spec must be one spec or {self.num_shards} specs, got {len(specs)}"
            )
        return specs

    def _shard_timelines(self) -> List[Optional[ScenarioTimeline]]:
        """Per-shard timelines: one for all, or one entry per shard.

        A sequence whose length equals the shard count and whose entries are
        all ``None`` / spec strings / timelines is read per shard; any other
        input builds a single composed timeline shared by every shard.
        """
        timeline = self.scenario_timeline
        if timeline is None:
            return [None] * self.num_shards
        if isinstance(timeline, ScenarioTimeline):
            return [timeline] * self.num_shards
        if isinstance(timeline, str):
            return [build_timeline(timeline)] * self.num_shards
        items = list(timeline)
        if len(items) == self.num_shards and all(
            item is None or isinstance(item, (str, ScenarioTimeline)) for item in items
        ):
            return [
                None
                if item is None
                else item
                if isinstance(item, ScenarioTimeline)
                else build_timeline(item)
                for item in items
            ]
        return [build_timeline(items)] * self.num_shards

    def _shard_seeds(self) -> list:
        if self.num_shards == 1:
            # Degenerate federation: pass the seed straight through so the
            # single shard replays the stand-alone simulator bit-for-bit.
            return [self.seed]
        return spawn_seeds(self.seed, self.num_shards)

    def _shard_simulators(self) -> List[ChurnSimulator]:
        specs = self._shard_churn_specs()
        seeds = self._shard_seeds()
        timelines = self._shard_timelines()
        return [
            ChurnSimulator(
                scenario=self.world.shards[i],
                algorithms=list(self.algorithms),
                churn_spec=specs[i],
                migration_cost=self.migration_cost,
                seed=seeds[i],
                policy=self.policy,
                policy_period=self.policy_period,
                policy_migration_budget=self.policy_migration_budget,
                scenario_timeline=timelines[i],
                admission_policy=self.admission_policy,
            )
            for i in range(self.num_shards)
        ]

    # ------------------------------------------------------------------ #
    def _signals(self, sessions: List[EpochSession], needs_zone_costs: bool) -> List[ShardSignal]:
        """Post-epoch arbitration signals, one per shard (primary algorithm)."""
        primary = self.algorithms[0]
        signals = []
        for shard_id, session in enumerate(sessions):
            state = session.state
            instance = state.instance
            assignment = state.assignments[primary]
            pqos, _util = state.measures[primary]
            signals.append(
                ShardSignal(
                    shard_id=shard_id,
                    total_demand=instance.total_demand(),
                    capacities=instance.server_capacities,
                    # Stash-aware (bit-identical): the adopted assignment's
                    # loads were already scattered once during its solve, so
                    # the arbitration signal reads them in O(servers) instead
                    # of re-reducing the per-client arrays.
                    server_loads=measured_server_loads(assignment, instance),
                    pqos=pqos,
                    capacity_exceeded=assignment.capacity_exceeded,
                    zone_demands=instance.zone_demands() if needs_zone_costs else None,
                    zone_costs=initial_cost_matrix(instance) if needs_zone_costs else None,
                )
            )
        return signals

    def _aggregate(
        self,
        shard_records: List[EpochRecord],
        epoch: int,
        before_capacity_weights: List[float],
        capacity_weights: List[float],
    ) -> EpochRecord:
        """Whole-system record for one algorithm across all shards.

        pQoS points are client-weighted means (so the aggregate equals the
        pQoS of the union population); utilisation points are weighted by
        each shard's total capacity slice *at the time the point was
        measured* — ``utilization_before`` was measured against the previous
        epoch's slices, the other points against this epoch's — so every
        aggregate utilisation equals total load over total fleet capacity;
        migration columns are summed.
        """
        before_w = [r.num_clients_before for r in shard_records]
        after_w = [r.num_clients_after for r in shard_records]
        return EpochRecord(
            epoch=epoch,
            algorithm=shard_records[0].algorithm,
            pqos_before=_nan_weighted_mean([r.pqos_before for r in shard_records], before_w),
            pqos_after=_nan_weighted_mean([r.pqos_after for r in shard_records], after_w),
            pqos_reexecuted=_nan_weighted_mean([r.pqos_reexecuted for r in shard_records], after_w),
            pqos_incremental=_nan_weighted_mean(
                [r.pqos_incremental for r in shard_records], after_w
            ),
            utilization_before=_nan_weighted_mean(
                [r.utilization_before for r in shard_records], before_capacity_weights
            ),
            utilization_reexecuted=_nan_weighted_mean(
                [r.utilization_reexecuted for r in shard_records], capacity_weights
            ),
            num_clients_before=sum(before_w),
            num_clients_after=sum(after_w),
            policy=shard_records[0].policy,
            pqos_adopted=_nan_weighted_mean([r.pqos_adopted for r in shard_records], after_w),
            utilization_adopted=_nan_weighted_mean(
                [r.utilization_adopted for r in shard_records], capacity_weights
            ),
            # One shared fleet: the aggregate sees the full fleet, not N copies.
            num_servers_after=self.world.num_servers,
            zones_migrated=sum(r.zones_migrated for r in shard_records),
            clients_migrated=sum(r.clients_migrated for r in shard_records),
            migration_cost=sum(r.migration_cost for r in shard_records),
            shard_id=AGGREGATE_SHARD_ID,
            clients_degraded=sum(r.clients_degraded for r in shard_records),
            capacity_deficit=sum(r.capacity_deficit for r in shard_records),
        )

    # ------------------------------------------------------------------ #
    def stream(self, num_epochs: int = 1) -> Iterator[EpochRecord]:
        """Run ``num_epochs`` epochs across all shards, yielding records.

        Per epoch: every shard's records first (``shard_id`` 0..N-1, one per
        algorithm, in algorithm order), then one aggregate record per
        algorithm (``shard_id == -1``).  After the records are out, the
        arbiter is consulted and any re-slice takes effect at the start of
        the *next* epoch.
        """
        if num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        arbiter = make_arbiter(self.arbiter)
        sessions = [sim.session(num_epochs) for sim in self._shard_simulators()]
        for shard_id, session in enumerate(sessions):
            session.shard_id = shard_id
        full_capacities = self.world.servers.capacities
        capacity_weights = [float(s.sum()) for s in self.world.slices]
        pending: Optional[np.ndarray] = None

        profile = FederationProfile(num_shards=self.num_shards)
        self.last_profile = profile

        for epoch in range(num_epochs):
            per_shard: List[List[EpochRecord]] = []
            for shard_id, session in enumerate(sessions):
                delta = None if pending is None else pending[shard_id]
                start = time.perf_counter()
                records = session.run_epoch(capacity_delta=delta)
                profile.shard_wall_seconds[shard_id] += time.perf_counter() - start
                per_shard.append(records)
                yield from records
            for shard_id, session in enumerate(sessions):
                profile.shard_solve_seconds[shard_id] = session.phase_seconds["solve"]
                profile.shard_measure_seconds[shard_id] = session.phase_seconds["measure"]
            profile.num_epochs = epoch + 1
            # The "before" measurements predate any re-slice this epoch
            # applied, so they keep the previous epoch's capacity weights.
            before_capacity_weights = capacity_weights
            if pending is not None:
                capacity_weights = [float(s.sum()) for s in pending]
            for a in range(len(self.algorithms)):
                yield self._aggregate(
                    [per_shard[s][a] for s in range(self.num_shards)],
                    epoch,
                    before_capacity_weights,
                    capacity_weights,
                )
            if epoch + 1 >= num_epochs:
                break
            arbiter_start = time.perf_counter()
            signals = self._signals(sessions, arbiter.needs_zone_costs)
            proposal = arbiter.arbitrate(full_capacities, signals)
            if proposal is None:
                pending = None
            else:
                # Re-validate even for the built-ins: a custom arbiter that
                # overrides arbitrate() directly must not be able to destroy
                # or mint capacity.
                pending = check_slices(proposal, full_capacities, self.num_shards)
            profile.arbiter_seconds += time.perf_counter() - arbiter_start

    def run(self, num_epochs: int = 1) -> List[EpochRecord]:
        """Eager list version of :meth:`stream`."""
        return list(self.stream(num_epochs))
