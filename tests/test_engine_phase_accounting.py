"""Phase accounting of the epoch engine, on a fake clock.

The session splits each epoch's wall time into four phases (``churn_gen``,
``advance``, ``solve``, ``measure``) that ``simulate --profile``, ``loadgen``,
the federation profile and three benchmark gates read.  These tests replace
the engine's clock with one that only moves inside the engine calls it
wraps, each call by a weight that names its phase:

* ``reassign``, ``incremental_reassign``, ``warm_start_refine``: 1 s;
* the measurement calls and the carry-over: 2**-10 s;
* churn generation (timeline plan and admission, churn draw and
  application, the fleet delta): 2**-20 s;
* the world advance: 2**-30 s.

Every weight is a power of two and the clock stays far below 2**22 s, so
each phase's seconds must equal its call count times its weight exactly.
"""

from __future__ import annotations

import types

import pytest

import repro.dynamics.engine as engine
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import AdmissionPolicy
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import RebalancePolicy
from repro.dynamics.scenarios import ScenarioRuntime
from repro.world.scenario import build_scenario
from tests.conftest import make_small_config

#: Seconds each wrapped call adds to the fake clock, by the phase it belongs to.
WEIGHTS = {"solve": 1.0, "measure": 2.0**-10, "churn_gen": 2.0**-20, "advance": 2.0**-30}

#: Engine-module names of the wrapped functions, by phase.
MODULE_CALLS = {
    "solve": ("reassign", "incremental_reassign", "warm_start_refine"),
    "measure": (
        "carried_qos_count",
        "carry_over_assignment",
        "measured_pqos",
        "measured_utilization",
        "ensure_measures",
    ),
    "churn_gen": (
        "generate_churn",
        "apply_churn",
        "generate_server_churn",
        "apply_server_churn",
    ),
}

#: Wrapped methods, by phase: ``(class, attribute)``.
METHOD_CALLS = {
    "churn_gen": (
        (ScenarioRuntime, "plan_epoch"),
        (ScenarioRuntime, "prepare_batch"),
    ),
    "advance": ((engine.ChurnSimulator, "_advance_world"),),
}

CHURN = ChurnSpec(num_joins=12, num_leaves=10, num_moves=8)
MIGRATION = MigrationCostModel(cost_per_client=1.0)
EPOCHS = 4


class FakeClock:
    """A clock that only moves when a wrapped engine call runs."""

    def __init__(self) -> None:
        self.now = 0.0
        self.calls = dict.fromkeys(WEIGHTS, 0)

    def perf_counter(self) -> float:
        return self.now

    def wrap(self, phase: str, fn):
        def ticking(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.now += WEIGHTS[phase]
            self.calls[phase] += 1
            return result

        return ticking


@pytest.fixture()
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(engine, "time", types.SimpleNamespace(perf_counter=fake.perf_counter))
    for phase, names in MODULE_CALLS.items():
        for name in names:
            monkeypatch.setattr(engine, name, fake.wrap(phase, getattr(engine, name)))
    for phase, methods in METHOD_CALLS.items():
        for owner, name in methods:
            monkeypatch.setattr(owner, name, fake.wrap(phase, getattr(owner, name)))
    return fake


def _scenario():
    config = make_small_config(num_clients=120, num_zones=8, num_servers=6)
    return build_scenario(config, seed=3)


def _session(**engine_args):
    simulator = engine.ChurnSimulator(
        scenario=_scenario(),
        algorithms=["grez-grec", "ranz-virc"],
        churn_spec=CHURN,
        seed=11,
        **engine_args,
    )
    return simulator.session(EPOCHS)


CASES = {
    "reexecute": dict(policy="reexecute"),
    "incremental": dict(policy="incremental"),
    "warm_start": dict(policy="warm_start"),
    "reexecute_budget": dict(
        policy="reexecute", policy_migration_budget=20.0, migration_cost=MIGRATION
    ),
    # Quiet, repaired, re-executed and budget-demoted epochs.
    "controller": dict(
        policy=RebalancePolicy(
            target_pqos=0.93, full_rebalance_every=3, max_migration_cost_per_epoch=100.0
        ),
        migration_cost=MIGRATION,
    ),
    "timeline": dict(
        policy="warm_start",
        scenario_timeline=["maintenance", "link-degradation", "diurnal"],
        admission_policy=AdmissionPolicy(patience_epochs=2),
    ),
    "server_churn": dict(
        policy="reexecute", server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1)
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_call_lands_in_its_phase(clock, case):
    session = _session(**CASES[case])
    per_epoch = []
    for _ in range(EPOCHS):
        before = dict(clock.calls)
        session.run_epoch()
        counts = {phase: clock.calls[phase] - before[phase] for phase in WEIGHTS}
        assert session.last_phase_seconds == {
            phase: counts[phase] * WEIGHTS[phase] for phase in WEIGHTS
        }
        per_epoch.append(dict(session.last_phase_seconds))
    assert all(clock.calls[phase] for phase in WEIGHTS)

    totals = dict.fromkeys(WEIGHTS, 0.0)
    for seconds in per_epoch:
        for phase, value in seconds.items():
            totals[phase] += value
    assert session.phase_seconds == totals

    assert not session.alloc_profile
    assert session.phase_alloc_bytes == dict.fromkeys(WEIGHTS, 0)
    assert session.last_phase_alloc_bytes == dict.fromkeys(WEIGHTS, 0)
