"""DVE dynamics substrate: churn generation and reassignment policies.

Reproduces the paper's Table 3 experiment (join / leave / move churn with
re-execution of the assignment algorithms) and extends it with repair
policies, a multi-epoch churn simulator, elastic infrastructure churn
(servers joining / leaving, capacity drift), a zone migration cost model,
a federated multi-shard engine with cross-shard capacity arbitration, and
an incident scenario library (outages, flash crowds, diurnal waves,
maintenance calendars, link degradation) with graceful degradation —
admission control that sheds excess clients to a FIFO degraded pool
instead of crashing on an infeasible world.

The rebalance controller is a policy of the churn engine: pass a
:class:`RebalancePolicy` as ``ChurnSimulator(policy=...)`` and every
:class:`EpochRecord` carries the action it took (``none`` / ``repair`` /
``rebalance``), the carried-over pQoS (``pqos_after``), the adopted pQoS
(``pqos_adopted``) and the migration bill.
"""

from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.engine import ChurnSimulator, EpochRecord, EpochSession, SimulationState
from repro.dynamics.federation_engine import AGGREGATE_SHARD_ID, FederatedSimulator
from repro.dynamics.infrastructure import (
    ServerChurnBatch,
    ServerChurnResult,
    ServerChurnSpec,
    apply_server_churn,
    generate_server_churn,
)
from repro.dynamics.migration import (
    MigrationCharge,
    MigrationCostModel,
    charge_zone_moves,
    count_zone_migrations,
)
from repro.dynamics.policies import (
    POLICY_ACTIONS,
    POLICY_NAMES,
    PolicySchedule,
    RebalancePolicy,
    carry_over_assignment,
    incremental_reassign,
    make_policy,
    reassign,
    remap_assignment_servers,
)
from repro.dynamics.events import ChurnBatch, ChurnResult, apply_churn
from repro.dynamics.degradation import (
    AdmissionPolicy,
    AdmissionStats,
    DegradedPool,
    admission_control,
    pick_evacuation_host,
)
from repro.dynamics.scenarios import (
    SCENARIO_LIBRARY,
    DiurnalEvent,
    FlashCrowdEvent,
    LinkDegradationEvent,
    MaintenanceEvent,
    OutageEvent,
    ScenarioEvent,
    ScenarioRuntime,
    ScenarioTimeline,
    build_timeline,
    parse_scenario,
)

__all__ = [
    "ChurnSpec",
    "generate_churn",
    "ChurnBatch",
    "ChurnResult",
    "apply_churn",
    "ServerChurnSpec",
    "ServerChurnBatch",
    "ServerChurnResult",
    "generate_server_churn",
    "apply_server_churn",
    "MigrationCostModel",
    "MigrationCharge",
    "count_zone_migrations",
    "charge_zone_moves",
    "carry_over_assignment",
    "remap_assignment_servers",
    "incremental_reassign",
    "reassign",
    "make_policy",
    "PolicySchedule",
    "POLICY_ACTIONS",
    "POLICY_NAMES",
    "RebalancePolicy",
    "ChurnSimulator",
    "EpochRecord",
    "EpochSession",
    "SimulationState",
    "FederatedSimulator",
    "AGGREGATE_SHARD_ID",
    "AdmissionPolicy",
    "AdmissionStats",
    "DegradedPool",
    "admission_control",
    "pick_evacuation_host",
    "SCENARIO_LIBRARY",
    "ScenarioEvent",
    "OutageEvent",
    "FlashCrowdEvent",
    "DiurnalEvent",
    "MaintenanceEvent",
    "LinkDegradationEvent",
    "ScenarioTimeline",
    "ScenarioRuntime",
    "parse_scenario",
    "build_timeline",
]
