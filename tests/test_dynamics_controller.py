"""Tests of the rebalance controller: the churn engine under a ``RebalancePolicy``."""

from __future__ import annotations

import math
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.events import apply_churn
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import (
    ACCEPT_REPAIR_IF_WITHIN,
    RebalancePolicy,
    carry_over_assignment,
    incremental_reassign,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.world.scenario import build_scenario
from tests.conftest import make_small_config
from tests.reference.records import records_equal

CHURN = ChurnSpec(num_joins=30, num_leaves=30, num_moves=30)


def controlled(scenario, policy, num_epochs, seed, **engine):
    """Records of a single-algorithm GreZ-GreC run under ``policy``."""
    return ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=CHURN,
        seed=seed,
        policy=policy,
        **engine,
    ).run(num_epochs)


def count(records, action: str) -> int:
    return sum(r.action == action for r in records)


def mean_adopted(records) -> float:
    return sum(r.pqos_adopted for r in records) / len(records)


def legacy_controller_run(scenario, algorithm, policy, churn_spec, seed, num_epochs):
    """The pre-engine standalone controller loop, kept as the executable spec.

    This is a line-for-line port of the original standalone controller loop
    (full scenario rebuild each epoch, no engine, no migration accounting);
    the engine under a ``RebalancePolicy`` must reproduce its trace
    bit-for-bit on client-only churn with the default (free) migration model.
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
                    >= policy.target_pqos - ACCEPT_REPAIR_IF_WITHIN
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
        for field in ("repair_slack", "max_migration_cost_per_epoch"):
            with pytest.raises(ValueError):
                RebalancePolicy(**{field: float("nan")})


class TestControllerPolicies:
    def test_record_structure(self, small_scenario):
        records = controlled(small_scenario, RebalancePolicy(target_pqos=0.9), 3, seed=0)
        assert len(records) == 3
        assert [r.epoch for r in records] == [0, 1, 2]
        for record in records:
            assert isinstance(record, EpochRecord)
            assert record.policy == "controller"
            assert record.action in ("none", "repair", "rebalance")
            assert 0.0 <= record.pqos_after <= 1.0
            assert 0.0 <= record.pqos_adopted <= 1.0
            # The controller never makes things worse than doing nothing.
            assert record.pqos_adopted >= record.pqos_after - 1e-9
        assert count(records, "rebalance") + count(records, "repair") <= 3

    def test_lazy_policy_never_rebalances(self, small_scenario):
        """A target of 0+ means the stale assignment is always good enough."""
        records = controlled(small_scenario, RebalancePolicy(target_pqos=0.01), 3, seed=1)
        assert all(r.action == "none" for r in records)

    def test_eager_policy_always_rebalances(self, small_scenario):
        """An unreachable target forces a full re-execution every epoch."""
        policy = RebalancePolicy(target_pqos=1.0, repair_slack=0.0)
        records = controlled(small_scenario, policy, 2, seed=1)
        assert count(records, "rebalance") == 2

    def test_periodic_trigger(self, small_scenario):
        policy = RebalancePolicy(target_pqos=0.01, full_rebalance_every=2)
        records = controlled(small_scenario, policy, 4, seed=2)
        # Epochs 1 and 3 (0-based) are periodic rebalances; the rest are "none".
        assert [r.action for r in records] == ["none", "rebalance", "none", "rebalance"]

    def test_tighter_policy_gives_no_worse_interactivity(self, small_scenario):
        lazy = controlled(small_scenario, RebalancePolicy(target_pqos=0.5), 3, seed=3)
        eager = controlled(
            small_scenario, RebalancePolicy(target_pqos=0.99, repair_slack=0.0), 3, seed=3
        )
        assert mean_adopted(eager) >= mean_adopted(lazy) - 1e-9
        assert count(eager, "rebalance") >= count(lazy, "rebalance")

    def test_invalid_epochs(self, small_scenario):
        with pytest.raises(ValueError):
            controlled(small_scenario, RebalancePolicy(), 0, seed=0)

    def test_deterministic(self, small_scenario):
        def run_once():
            return controlled(small_scenario, RebalancePolicy(target_pqos=0.95), 2, seed=9)

        a, b = run_once(), run_once()
        assert all(records_equal(x, y) for x, y in zip(a, b))


class TestLegacyTraceReproduction:
    """Acceptance criterion: the engine under a ``RebalancePolicy``
    reproduces the pre-port standalone loop's trace on client-only churn
    with zero migration cost.
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
        records = controlled(small_scenario, policy, 4, seed=17)
        assert len(advance_oracle_spy) == 4
        ported = [
            (r.epoch, r.action, r.pqos_after, r.pqos_adopted, r.num_clients_after)
            for r in records
        ]
        assert ported == legacy


class TestControllerOnEngine:
    def test_bills_every_epoch(self, small_scenario):
        migration = MigrationCostModel(cost_per_client=1.0, freeze_ms_per_client=0.5)
        records = controlled(
            small_scenario, RebalancePolicy(target_pqos=0.95), 3, seed=1, migration_cost=migration
        )
        for record in records:
            charge = migration.charge(record.zones_migrated, record.clients_migrated)
            assert record.migration_cost == charge.cost
            assert charge.freeze_ms == 0.5 * record.clients_migrated

    def test_migration_accounting_none_action_is_free(self, small_scenario):
        records = controlled(
            small_scenario,
            RebalancePolicy(target_pqos=0.01),  # always "none"
            3,
            seed=1,
            migration_cost=MigrationCostModel(cost_per_client=2.0),
        )
        assert all(r.action == "none" for r in records)
        assert sum(r.migration_cost for r in records) == 0.0
        assert sum(r.clients_migrated for r in records) == 0

    def test_migration_budget_blocks_rebalances(self, small_scenario):
        kwargs = dict(seed=3, migration_cost=MigrationCostModel(cost_per_client=1.0))
        eager = controlled(
            small_scenario, RebalancePolicy(target_pqos=1.0, repair_slack=0.0), 3, **kwargs
        )
        capped = controlled(
            small_scenario,
            RebalancePolicy(target_pqos=1.0, repair_slack=0.0, max_migration_cost_per_epoch=0.0),
            3,
            **kwargs,
        )
        assert count(eager, "rebalance") == 3
        assert count(capped, "rebalance") == 0
        # Demoted re-executions are labelled with the action actually taken.
        assert {r.action for r in capped} <= {"none", "repair"}
        assert sum(r.migration_cost for r in capped) <= sum(r.migration_cost for r in eager)
        # The budget trades interactivity for stability, never below "do nothing".
        for record in capped:
            assert record.pqos_adopted >= record.pqos_after - 1e-12

    def test_with_server_churn(self, small_scenario):
        records = controlled(
            small_scenario,
            RebalancePolicy(target_pqos=0.9),
            3,
            seed=2,
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.1),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        )
        assert len(records) == 3
        for record in records:
            assert record.num_servers_after == small_scenario.num_servers  # +1 join −1 leave
            assert record.action in ("none", "repair", "rebalance")

    def test_world_advance_matches_rebuild_oracle_with_server_churn(
        self, small_scenario, advance_oracle_spy
    ):
        controlled(
            small_scenario,
            RebalancePolicy(target_pqos=0.95),
            3,
            seed=8,
            server_churn_spec=ServerChurnSpec(num_joins=1, capacity_drift=0.05),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
        )
        assert advance_oracle_spy == [True, True, True]


# ---------------------------------------------------------------------- #
# Controller decisions on generated policies, churn mixes and seeds.
# ---------------------------------------------------------------------- #
#: Clients of ``make_small_config``; thresholds are drawn on its 1/150 grid,
#: so a balanced churn mix can land the carried-over pQoS exactly on them.
NUM_CLIENTS = make_small_config().num_clients

#: Without churn, world 0 under seed 0 keeps 140 of its 150 clients within
#: the bound every epoch: the pinned examples put thresholds exactly there.
NO_CHURN = ChurnSpec(num_joins=0, num_leaves=0, num_moves=0)
STILL_WORLD = dict(churn=NO_CHURN, elastic=False, world_seed=0, seed=0)
TIE = 140 / NUM_CLIENTS


def on_grid(target: int, slack: int) -> RebalancePolicy:
    """A policy whose thresholds are counts on the 1/150 grid (the repair
    floor, ``ACCEPT_REPAIR_IF_WITHIN`` = 3/150 under the target, is too)."""
    return RebalancePolicy(target_pqos=target / NUM_CLIENTS, repair_slack=slack / NUM_CLIENTS)

UNIT_COST = MigrationCostModel(cost_per_client=1.0)
ELASTIC = ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05)


def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(derandomize=True, deadline=None, database=None, max_examples=max_examples)


@lru_cache(maxsize=None)
def small_world(seed: int):
    """The ``make_small_config`` world of ``seed``, built once per test session."""
    return build_scenario(make_small_config(), seed=seed)


def grid(lo: int, hi: int):
    """Fractions ``k / NUM_CLIENTS`` for ``lo <= k <= hi``."""
    return st.integers(lo, hi).map(lambda k: k / NUM_CLIENTS)


@st.composite
def policies(draw) -> RebalancePolicy:
    """Target, slack, period and a finite or infinite budget."""
    return RebalancePolicy(
        target_pqos=draw(grid(NUM_CLIENTS * 3 // 4, NUM_CLIENTS)),
        repair_slack=draw(grid(0, NUM_CLIENTS // 8)),
        full_rebalance_every=draw(st.integers(0, 3)),
        max_migration_cost_per_epoch=draw(
            st.one_of(st.just(math.inf), st.floats(0.0, 60.0, allow_nan=False))
        ),
    )


@st.composite
def churn_mixes(draw) -> ChurnSpec:
    """Joins, leaves and moves; many mixes keep the population fixed."""
    joins = draw(st.integers(0, 30))
    leaves = draw(st.one_of(st.just(joins), st.integers(0, 30)))
    return ChurnSpec(num_joins=joins, num_leaves=leaves, num_moves=draw(st.integers(0, 30)))


def prescribed(policy: RebalancePolicy, record: EpochRecord) -> str:
    """The action the policy's thresholds prescribe from the record's own columns.

    Written out from the contract of ``action_after``, ``repair_floor`` and
    ``demoted_action`` rather than by calling them, so a fault in any of the
    three shows.  Whether a re-execution billed above the budget is not a
    record column: under a finite budget, a re-execution the record does not
    keep is taken as a demotion, and it must have run.  Both the repair
    decision and a demotion read the repaired pQoS, so it must be measured.
    """

    def repaired() -> float:
        assert not math.isnan(record.pqos_incremental), f"the repair never ran: {record}"
        return record.pqos_incremental

    period = policy.full_rebalance_every
    if period > 0 and (record.epoch + 1) % period == 0:
        action = "rebalance"
    elif record.pqos_after >= policy.target_pqos:
        return "none"
    elif record.pqos_after >= policy.target_pqos - policy.repair_slack:
        floor = policy.target_pqos - ACCEPT_REPAIR_IF_WITHIN
        action = "repair" if repaired() >= floor else "rebalance"
    else:
        action = "rebalance"
    budgeted = math.isfinite(policy.max_migration_cost_per_epoch)
    if action == "rebalance" and budgeted and record.action != "rebalance":
        assert not math.isnan(record.pqos_reexecuted), f"nothing to demote: {record}"
        return "repair" if repaired() >= record.pqos_after else "none"
    return action


class TestControllerDecisionProperties:
    """Invariants of four controlled epochs on generated inputs.

    Invariant groups:

    - decisions: each record's action is what the policy prescribes from
      the record's own pQoS columns;
    - budget: an adopted ``rebalance`` bills within the budget;
    - billing: a ``none`` epoch on a fixed fleet migrates nothing.
    """

    @pinned(24)
    # Carried-over pQoS exactly on the target, then exactly on the repair
    # threshold with the repair landing exactly on the floor, then one count
    # under it (k/150 - (k - 140)/150 == 140/150 and 143/150 - 0.02 == 140/150
    # in floating point).
    @example(policy=on_grid(target=140, slack=5), **STILL_WORLD)
    @example(policy=on_grid(target=143, slack=3), **STILL_WORLD)
    @example(policy=on_grid(target=144, slack=4), **STILL_WORLD)
    @given(
        policy=policies(),
        churn=churn_mixes(),
        elastic=st.booleans(),
        world_seed=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decisions_follow_policy(self, policy, churn, elastic, world_seed, seed):
        records = ChurnSimulator(
            scenario=small_world(world_seed),
            algorithms=["grez-grec"],
            churn_spec=churn,
            server_churn_spec=ELASTIC if elastic else None,
            migration_cost=UNIT_COST,
            seed=seed,
            policy=policy,
        ).run(4)
        if churn == NO_CHURN and not elastic and world_seed == seed == 0:
            assert records[0].pqos_after == TIE
        budget = policy.max_migration_cost_per_epoch
        for record in records:
            # Decisions.
            assert record.action == prescribed(policy, record), record
            # Budget.
            if record.action == "rebalance":
                assert record.migration_cost <= budget, record
            # Billing.
            if record.action == "none" and not elastic:
                assert record.zones_migrated == 0, record
                assert record.clients_migrated == 0 and record.migration_cost == 0.0, record
