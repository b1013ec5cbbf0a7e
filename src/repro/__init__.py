"""repro — reproduction of "Efficient Client-to-Server Assignments for
Distributed Virtual Environments" (Ta & Zhou, IPDPS 2006).

The package implements the paper's two-phase client assignment approach for
geographically distributed DVE server architectures (GDSA) together with every
substrate the evaluation depends on:

* :mod:`repro.topology` — BRITE-like Internet topology generators and the
  round-trip delay model (500 ms max RTT, 50 %-latency inter-server mesh).
* :mod:`repro.world` — servers, zones, clients, bandwidth model and the
  scenario builder implementing the paper's Section 4.1 parameters.
* :mod:`repro.core` — the client assignment problem (CAP), the IAP/RAP cost
  metrics, the RanZ / GreZ / VirC / GreC heuristics, the four two-phase
  compositions and the exact MILP baseline.
* :mod:`repro.baselines` — related-work baselines (delay-oblivious load
  balancing, nearest-server selection, centralised deployment).
* :mod:`repro.dynamics` — join/leave/move churn and reassignment policies.
* :mod:`repro.measurement` — King / IDMaps delay-estimation error models.
* :mod:`repro.metrics` — pQoS, resource utilisation, delay CDFs.
* :mod:`repro.experiments` — one driver per table / figure of the paper.

Quickstart
----------
>>> from repro import DVEConfig, build_scenario, CAPInstance, solve_cap
>>> scenario = build_scenario(DVEConfig(num_servers=5, num_zones=15,
...                                     num_clients=200, total_capacity_mbps=100),
...                           seed=42)
>>> instance = CAPInstance.from_scenario(scenario)
>>> assignment = solve_cap(instance, "grez-grec", seed=0)
>>> round(assignment.pqos(instance), 2)  # doctest: +SKIP
0.93
"""

from repro.core import (
    Assignment,
    CAPInstance,
    TwoPhaseAlgorithm,
    ZoneAssignment,
    assign_contacts_greedy,
    assign_contacts_virtual,
    assign_zones_greedy,
    assign_zones_random,
    solve_cap,
    solve_cap_optimal,
    validate_assignment,
)
from repro.metrics import pqos, qos_report, resource_report, resource_utilization
from repro.world import DVEConfig, DVEScenario, build_scenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # world
    "DVEConfig",
    "DVEScenario",
    "build_scenario",
    # core problem / solutions
    "CAPInstance",
    "Assignment",
    "ZoneAssignment",
    "TwoPhaseAlgorithm",
    # algorithms
    "assign_zones_random",
    "assign_zones_greedy",
    "assign_contacts_virtual",
    "assign_contacts_greedy",
    "solve_cap",
    "solve_cap_optimal",
    "validate_assignment",
    # metrics
    "pqos",
    "qos_report",
    "resource_utilization",
    "resource_report",
]
