"""Reassignment controller: *when* to re-run the assignment under churn.

Section 3.4 of the paper notes that "an obtained client assignment may not be
good after some time.  Thus, the proposed two-phase algorithm needs to be
executed again to ensure good client assignments" — but leaves the trigger
policy to the operator.  This module provides that missing operational layer:
a :class:`RebalanceController` that watches the live pQoS after every churn
epoch and decides between

* doing nothing (keep the stale assignment),
* an **incremental repair** (re-run only the refined phase), or
* a **full re-execution** of the two-phase algorithm,

according to a configurable :class:`RebalancePolicy`.  The controller tracks
how many of each action it took and the pQoS trajectory, so policies can be
compared on both interactivity and re-assignment cost (full re-executions are
the expensive, disruptive events an operator wants to minimise).

The controller is a configuration of the churn engine: its epochs run through
:class:`~repro.dynamics.engine.EpochSession` with the :class:`RebalancePolicy`
as the session's schedule, so they share the engine's delta world advance,
infrastructure churn, incident timelines, arena, O(churn) measurement and
per-phase profile.  The engine picks each epoch's
action once the carried-over pQoS is measured, bills it with the
:class:`~repro.dynamics.migration.MigrationCostModel`, and labels the
:class:`~repro.dynamics.engine.EpochRecord` with it; a
:class:`RebalanceStep` is a view of that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import RebalancePolicy
from repro.utils.rng import SeedLike
from repro.world.scenario import DVEScenario

__all__ = ["RebalancePolicy", "RebalanceStep", "RebalanceTrace", "RebalanceController"]


@dataclass(frozen=True)
class RebalanceStep:
    """What happened in one controlled epoch."""

    epoch: int
    action: str  # "none" | "repair" | "rebalance"
    pqos_stale: float
    pqos_final: float
    num_clients: int
    num_servers: int = 0
    zones_migrated: int = 0
    clients_migrated: int = 0
    migration_cost: float = 0.0
    freeze_ms: float = 0.0


@dataclass(frozen=True)
class RebalanceTrace:
    """Full trajectory of a controlled churn run."""

    steps: List[RebalanceStep]
    policy: RebalancePolicy
    algorithm: str
    #: Streaming engine records (one per epoch), so controller studies plug
    #: into the same CSV / summary tooling as the policy-schedule engine.
    records: List[EpochRecord] = field(default_factory=list)

    @property
    def num_rebalances(self) -> int:
        """Number of full re-executions the controller triggered."""
        return sum(1 for s in self.steps if s.action == "rebalance")

    @property
    def num_repairs(self) -> int:
        """Number of incremental repairs the controller kept."""
        return sum(1 for s in self.steps if s.action == "repair")

    @property
    def mean_pqos(self) -> float:
        """Mean post-decision pQoS over all epochs."""
        if not self.steps:
            return 1.0
        return sum(s.pqos_final for s in self.steps) / len(self.steps)

    @property
    def total_migration_cost(self) -> float:
        """Total migration bill across all epochs (cost-model units)."""
        return sum(s.migration_cost for s in self.steps)

    @property
    def total_clients_migrated(self) -> int:
        """Total clients whose zone changed hosting server across the run."""
        return sum(s.clients_migrated for s in self.steps)

    def pqos_series(self) -> List[float]:
        """Post-decision pQoS per epoch."""
        return [s.pqos_final for s in self.steps]


@dataclass
class RebalanceController:
    """Drives churn epochs and applies a :class:`RebalancePolicy`.

    Parameters
    ----------
    scenario:
        The initial DVE scenario.
    algorithm:
        Registered CAP solver used for initial assignment and re-executions.
    policy:
        The trigger policy.
    churn_spec:
        Amount of client churn per epoch.
    seed:
        Master seed for churn generation and the solver's random choices.
    server_churn_spec:
        Optional infrastructure churn per epoch (servers joining / leaving,
        capacity drift); ``None`` keeps the fixed fleet.
    migration_cost:
        Price model for zone moves (free by default); feeds both the
        per-step accounting and the policy's migration budget.
    scenario_timeline:
        Optional incident timeline (:mod:`repro.dynamics.scenarios`): the
        controller then reacts to outages, flash crowds and delay overlays
        instead of stationary churn, with every epoch's batch passing through
        admission control so infeasible worlds shed to the degraded pool
        rather than raising.
    admission_policy:
        Shedding/re-admission thresholds for the scenario layer.
    """

    scenario: DVEScenario
    algorithm: str = "grez-grec"
    policy: RebalancePolicy = field(default_factory=RebalancePolicy)
    churn_spec: ChurnSpec = field(default_factory=ChurnSpec)
    seed: SeedLike = None
    server_churn_spec: Optional[ServerChurnSpec] = None
    migration_cost: MigrationCostModel = field(default_factory=MigrationCostModel)
    scenario_timeline: object = None
    admission_policy: object = None

    def stream(self, num_epochs: int = 5) -> Iterator[Tuple[RebalanceStep, EpochRecord]]:
        """Run controlled churn epochs, yielding ``(step, record)`` pairs.

        Each epoch is one :meth:`EpochSession.run_epoch` of a single-algorithm
        :class:`~repro.dynamics.engine.ChurnSimulator` whose schedule is the
        controller's :class:`RebalancePolicy`; the step is read off the
        epoch's record.
        """
        session = ChurnSimulator(
            scenario=self.scenario,
            algorithms=[self.algorithm],
            churn_spec=self.churn_spec,
            server_churn_spec=self.server_churn_spec,
            migration_cost=self.migration_cost,
            seed=self.seed,
            policy=self.policy,
            scenario_timeline=self.scenario_timeline,
            admission_policy=self.admission_policy,
        ).session(num_epochs)
        while not session.done:
            (record,) = session.run_epoch()
            charge = self.migration_cost.charge(record.zones_migrated, record.clients_migrated)
            step = RebalanceStep(
                epoch=record.epoch,
                action=record.action,
                pqos_stale=record.pqos_after,
                pqos_final=record.pqos_adopted,
                num_clients=record.num_clients_after,
                num_servers=record.num_servers_after,
                zones_migrated=record.zones_migrated,
                clients_migrated=record.clients_migrated,
                migration_cost=record.migration_cost,
                freeze_ms=charge.freeze_ms,
            )
            yield step, record

    def run(self, num_epochs: int = 5) -> RebalanceTrace:
        """Simulate ``num_epochs`` churn epochs under the controller's policy."""
        steps: List[RebalanceStep] = []
        records: List[EpochRecord] = []
        for step, record in self.stream(num_epochs):
            steps.append(step)
            records.append(record)
        return RebalanceTrace(
            steps=steps, policy=self.policy, algorithm=self.algorithm, records=records
        )
