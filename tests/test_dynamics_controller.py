"""Tests for repro.dynamics.controller — the rebalancing trigger policies."""

from __future__ import annotations

import pytest

from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.controller import (
    RebalanceController,
    RebalancePolicy,
    RebalanceTrace,
)
from repro.dynamics.engine import EpochRecord
from repro.dynamics.events import apply_churn
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import carry_over_assignment, incremental_reassign
from repro.utils.rng import as_generator, spawn_generators

CHURN = ChurnSpec(num_joins=30, num_leaves=30, num_moves=30)


def legacy_controller_run(scenario, algorithm, policy, churn_spec, seed, num_epochs):
    """The pre-engine standalone controller loop, kept as the executable spec.

    This is a line-for-line port of the original ``RebalanceController.run``
    (full scenario rebuild each epoch, no engine, no migration accounting);
    the engine-backed controller must reproduce its trace bit-for-bit on
    client-only churn with the default (free) migration model.
    """
    rng = as_generator(seed)
    solve_rng, *epoch_rngs = spawn_generators(rng, num_epochs + 1)
    instance = CAPInstance.from_scenario(scenario)
    assignment = registry_solve(instance, algorithm, seed=solve_rng)
    steps = []
    for epoch in range(num_epochs):
        churn_rng, reassign_rng = spawn_generators(epoch_rngs[epoch], 2)
        batch = generate_churn(scenario, churn_spec, seed=churn_rng)
        churn = apply_churn(scenario.population, batch)
        scenario = scenario.with_population(churn.population)
        new_instance = CAPInstance.from_scenario(scenario)
        stale = carry_over_assignment(assignment, churn, new_instance)
        pqos_stale = stale.pqos(new_instance)
        periodic_due = (
            policy.full_rebalance_every > 0
            and (epoch + 1) % policy.full_rebalance_every == 0
        )
        if pqos_stale >= policy.target_pqos and not periodic_due:
            action, final = "none", stale
        else:
            final = None
            if not periodic_due and pqos_stale >= policy.target_pqos - policy.repair_slack:
                repaired = incremental_reassign(stale, new_instance)
                if (
                    repaired.pqos(new_instance)
                    >= policy.target_pqos - policy.accept_repair_if_within
                ):
                    action, final = "repair", repaired
            if final is None:
                action, final = "rebalance", registry_solve(
                    new_instance, algorithm, seed=reassign_rng
                )
        steps.append(
            (epoch, action, pqos_stale, final.pqos(new_instance), new_instance.num_clients)
        )
        assignment = final
    return steps


class TestRebalancePolicy:
    def test_defaults(self):
        policy = RebalancePolicy()
        assert policy.target_pqos == 0.9
        assert policy.full_rebalance_every == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(target_pqos=0.0)
        with pytest.raises(ValueError):
            RebalancePolicy(target_pqos=1.5)
        with pytest.raises(ValueError):
            RebalancePolicy(repair_slack=-0.1)
        with pytest.raises(ValueError):
            RebalancePolicy(full_rebalance_every=-1)


class TestRebalanceController:
    def test_trace_structure(self, small_scenario):
        controller = RebalanceController(
            scenario=small_scenario,
            algorithm="grez-grec",
            policy=RebalancePolicy(target_pqos=0.9),
            churn_spec=CHURN,
            seed=0,
        )
        trace = controller.run(num_epochs=3)
        assert isinstance(trace, RebalanceTrace)
        assert len(trace.steps) == 3
        assert [s.epoch for s in trace.steps] == [0, 1, 2]
        for step in trace.steps:
            assert step.action in ("none", "repair", "rebalance")
            assert 0.0 <= step.pqos_stale <= 1.0
            assert 0.0 <= step.pqos_final <= 1.0
            # The controller never makes things worse than doing nothing.
            assert step.pqos_final >= step.pqos_stale - 1e-9
        assert trace.num_rebalances + trace.num_repairs <= 3
        assert len(trace.pqos_series()) == 3
        assert 0.0 <= trace.mean_pqos <= 1.0

    def test_lazy_policy_never_rebalances(self, small_scenario):
        """A target of 0+ means the stale assignment is always good enough."""
        controller = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.01),
            churn_spec=CHURN,
            seed=1,
        )
        trace = controller.run(num_epochs=3)
        assert trace.num_rebalances == 0
        assert trace.num_repairs == 0
        assert all(s.action == "none" for s in trace.steps)

    def test_eager_policy_always_rebalances(self, small_scenario):
        """An unreachable target forces a full re-execution every epoch."""
        controller = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=1.0, repair_slack=0.0),
            churn_spec=CHURN,
            seed=1,
        )
        trace = controller.run(num_epochs=2)
        assert trace.num_rebalances == 2

    def test_periodic_trigger(self, small_scenario):
        controller = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.01, full_rebalance_every=2),
            churn_spec=CHURN,
            seed=2,
        )
        trace = controller.run(num_epochs=4)
        # Epochs 1 and 3 (0-based) are periodic rebalances; the rest are "none".
        actions = [s.action for s in trace.steps]
        assert actions[1] == "rebalance" and actions[3] == "rebalance"
        assert actions[0] == "none" and actions[2] == "none"

    def test_tighter_policy_gives_no_worse_interactivity(self, small_scenario):
        lazy = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.5),
            churn_spec=CHURN,
            seed=3,
        ).run(num_epochs=3)
        eager = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.99, repair_slack=0.0),
            churn_spec=CHURN,
            seed=3,
        ).run(num_epochs=3)
        assert eager.mean_pqos >= lazy.mean_pqos - 1e-9
        assert eager.num_rebalances >= lazy.num_rebalances

    def test_invalid_epochs(self, small_scenario):
        with pytest.raises(ValueError):
            RebalanceController(scenario=small_scenario).run(num_epochs=0)

    def test_deterministic(self, small_scenario):
        def run_once():
            return RebalanceController(
                scenario=small_scenario,
                policy=RebalancePolicy(target_pqos=0.95),
                churn_spec=CHURN,
                seed=9,
            ).run(num_epochs=2)

        a, b = run_once(), run_once()
        assert a.pqos_series() == b.pqos_series()
        assert [s.action for s in a.steps] == [s.action for s in b.steps]


class TestLegacyTraceReproduction:
    """Acceptance criterion: the engine-backed controller reproduces the
    pre-port standalone loop's trace on client-only churn with zero
    migration cost.
    """

    @pytest.mark.parametrize(
        "policy",
        [
            RebalancePolicy(target_pqos=0.9),
            RebalancePolicy(target_pqos=0.95, repair_slack=0.1),
            RebalancePolicy(target_pqos=0.01, full_rebalance_every=2),
            RebalancePolicy(target_pqos=1.0, repair_slack=0.0),
        ],
        ids=["default", "repair-happy", "periodic", "eager"],
    )
    def test_matches_legacy_loop(self, small_scenario, policy, advance_oracle_spy):
        legacy = legacy_controller_run(small_scenario, "grez-grec", policy, CHURN, 17, 4)
        trace = RebalanceController(
            scenario=small_scenario,
            algorithm="grez-grec",
            policy=policy,
            churn_spec=CHURN,
            seed=17,
        ).run(num_epochs=4)
        assert len(advance_oracle_spy) == 4
        ported = [
            (s.epoch, s.action, s.pqos_stale, s.pqos_final, s.num_clients)
            for s in trace.steps
        ]
        assert ported == legacy


class TestControllerOnEngine:
    def test_streams_epoch_records(self, small_scenario):
        trace = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.95),
            churn_spec=CHURN,
            seed=1,
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        ).run(num_epochs=3)
        assert len(trace.records) == 3
        actions = [r.action for r in trace.records]
        assert actions.count("repair") == trace.num_repairs
        assert actions.count("rebalance") == trace.num_rebalances
        for step, record in zip(trace.steps, trace.records):
            assert isinstance(record, EpochRecord)
            assert record.policy == "controller"
            assert record.action == step.action
            assert record.action in ("none", "repair", "rebalance")
            assert record.pqos_after == step.pqos_stale
            assert record.pqos_adopted == step.pqos_final
            assert record.migration_cost == step.migration_cost
            assert record.num_clients_after == step.num_clients

    def test_migration_accounting_none_action_is_free(self, small_scenario):
        trace = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.01),  # always "none"
            churn_spec=CHURN,
            seed=1,
            migration_cost=MigrationCostModel(cost_per_client=2.0),
        ).run(num_epochs=3)
        assert all(s.action == "none" for s in trace.steps)
        assert trace.total_migration_cost == 0.0
        assert trace.total_clients_migrated == 0

    def test_migration_budget_blocks_rebalances(self, small_scenario):
        kwargs = dict(
            scenario=small_scenario,
            churn_spec=CHURN,
            seed=3,
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        )
        eager = RebalanceController(
            policy=RebalancePolicy(target_pqos=1.0, repair_slack=0.0), **kwargs
        ).run(num_epochs=3)
        capped = RebalanceController(
            policy=RebalancePolicy(
                target_pqos=1.0, repair_slack=0.0, max_migration_cost_per_epoch=0.0
            ),
            **kwargs,
        ).run(num_epochs=3)
        assert eager.num_rebalances == 3
        assert capped.num_rebalances == 0
        # Demoted re-executions are labelled with the action actually taken.
        assert {r.action for r in capped.records} <= {"none", "repair"}
        assert capped.total_migration_cost <= eager.total_migration_cost
        # The budget trades interactivity for stability, never below "do nothing".
        for step in capped.steps:
            assert step.pqos_final >= step.pqos_stale - 1e-12

    def test_with_server_churn(self, small_scenario):
        trace = RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.9),
            churn_spec=CHURN,
            seed=2,
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.1),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        ).run(num_epochs=3)
        assert len(trace.steps) == 3
        for step in trace.steps:
            assert step.num_servers == small_scenario.num_servers  # +1 join −1 leave
            assert step.action in ("none", "repair", "rebalance")

    def test_world_advance_matches_rebuild_oracle_with_server_churn(
        self, small_scenario, advance_oracle_spy
    ):
        RebalanceController(
            scenario=small_scenario,
            policy=RebalancePolicy(target_pqos=0.95),
            churn_spec=CHURN,
            seed=8,
            server_churn_spec=ServerChurnSpec(num_joins=1, capacity_drift=0.05),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        ).run(num_epochs=3)
        assert advance_oracle_spy == [True, True, True]

    def test_backend_keyword_removed(self, small_scenario):
        with pytest.raises(TypeError, match="backend"):
            RebalanceController(scenario=small_scenario, backend="delta")
