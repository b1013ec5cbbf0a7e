"""Tests for the incremental churn pipeline: delta world/instance updates,
the engine's world advance against the rebuild oracle, policy schedules and
streaming.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core.problem import CAPInstance
from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.engine import ChurnSimulator, EpochRecord, SimulationState
from repro.dynamics.events import ChurnBatch, apply_churn
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.policies import POLICY_ACTIONS, PolicySchedule, make_policy
from repro.utils.arena import EpochArena

#: The ≥3 churn mixes the acceptance criterion asks the equivalence property
#: to cover: balanced, join-heavy (population grows) and leave-heavy
#: (population shrinks), plus a move-only mix.
CHURN_SPECS = [
    ChurnSpec(20, 20, 20),
    ChurnSpec(40, 5, 10),
    ChurnSpec(5, 40, 10),
    ChurnSpec(0, 0, 30),
]


def _delta_instance(old_instance, churn, new_scenario):
    """Build the post-churn instance through the delta path."""
    return old_instance.apply_delta(
        old_to_new=churn.old_to_new,
        join_delays=new_scenario.client_server_delays[churn.new_client_indices],
        client_zones=new_scenario.population.zones,
        client_demands=new_scenario.client_demands,
    )


class TestScenarioChurnDelta:
    @pytest.mark.parametrize("spec", CHURN_SPECS, ids=lambda s: s.__repr__())
    def test_bit_identical_to_with_population(self, small_scenario, spec):
        batch = generate_churn(small_scenario, spec, seed=5)
        churn = apply_churn(small_scenario.population, batch)
        rebuilt = small_scenario.with_population(churn.population)
        delta = small_scenario.apply_churn_delta(churn)
        np.testing.assert_array_equal(rebuilt.client_server_delays, delta.client_server_delays)
        np.testing.assert_array_equal(rebuilt.client_demands, delta.client_demands)
        np.testing.assert_array_equal(rebuilt.population.nodes, delta.population.nodes)
        np.testing.assert_array_equal(rebuilt.population.zones, delta.population.zones)
        assert delta.server_server_delays is small_scenario.server_server_delays
        assert delta.topology is small_scenario.topology

    def test_population_mismatch_rejected(self, small_scenario):
        batch = generate_churn(small_scenario, ChurnSpec(10, 3, 3), seed=5)
        churn = apply_churn(small_scenario.population, batch)
        grown = small_scenario.with_population(churn.population)
        assert grown.num_clients != small_scenario.num_clients
        with pytest.raises(ValueError, match="generated against"):
            grown.apply_churn_delta(churn)  # churn refers to the *old* snapshot

    def test_multi_epoch_chain_matches_rebuild_chain(self, small_scenario):
        """Deltas compose: three chained epochs equal three chained rebuilds."""
        delta_scenario = rebuild_scenario = small_scenario
        for epoch in range(3):
            batch = generate_churn(rebuild_scenario, ChurnSpec(15, 10, 10), seed=100 + epoch)
            churn = apply_churn(rebuild_scenario.population, batch)
            rebuild_scenario = rebuild_scenario.with_population(churn.population)
            delta_scenario = delta_scenario.apply_churn_delta(churn)
            np.testing.assert_array_equal(
                rebuild_scenario.client_server_delays, delta_scenario.client_server_delays
            )
            np.testing.assert_array_equal(
                rebuild_scenario.client_demands, delta_scenario.client_demands
            )


class TestInstanceApplyDelta:
    @pytest.mark.parametrize("spec", CHURN_SPECS[:3], ids=["balanced", "join-heavy", "leave-heavy"])
    def test_bit_identical_to_from_scenario(self, small_scenario, small_instance, spec):
        batch = generate_churn(small_scenario, spec, seed=9)
        churn = apply_churn(small_scenario.population, batch)
        new_scenario = small_scenario.apply_churn_delta(churn)
        rebuilt = CAPInstance.from_scenario(new_scenario)
        delta = _delta_instance(small_instance, churn, new_scenario)
        np.testing.assert_array_equal(rebuilt.client_server_delays, delta.client_server_delays)
        np.testing.assert_array_equal(rebuilt.client_zones, delta.client_zones)
        np.testing.assert_array_equal(rebuilt.client_demands, delta.client_demands)
        np.testing.assert_array_equal(rebuilt.zone_demands(), delta.zone_demands())
        np.testing.assert_array_equal(rebuilt.zone_populations(), delta.zone_populations())
        assert delta.delay_bound == small_instance.delay_bound
        assert delta.num_zones == small_instance.num_zones

    def test_rejects_wrong_old_to_new_length(self, small_instance):
        with pytest.raises(ValueError, match="old_to_new"):
            small_instance.apply_delta(
                old_to_new=np.zeros(3, dtype=np.int64),
                join_delays=np.zeros((0, small_instance.num_servers)),
                client_zones=np.zeros(3, dtype=np.int64),
                client_demands=np.ones(3),
            )

    def test_rejects_negative_join_delays(self, small_instance):
        k = small_instance.num_clients
        with pytest.raises(ValueError, match="non-negative"):
            small_instance.apply_delta(
                old_to_new=np.arange(k, dtype=np.int64),
                join_delays=np.full((1, small_instance.num_servers), -1.0),
                client_zones=np.zeros(k + 1, dtype=np.int64),
                client_demands=np.ones(k + 1),
            )

    def test_rejects_unordered_survivor_map(self, small_instance):
        k = small_instance.num_clients
        scrambled = np.arange(k, dtype=np.int64)
        scrambled[0], scrambled[1] = scrambled[1], scrambled[0]
        with pytest.raises(ValueError, match="relative order"):
            small_instance.apply_delta(
                old_to_new=scrambled,
                join_delays=np.zeros((0, small_instance.num_servers)),
                client_zones=small_instance.client_zones,
                client_demands=small_instance.client_demands,
            )

    def test_rejects_out_of_range_zone(self, small_instance):
        k = small_instance.num_clients
        zones = small_instance.client_zones.copy()
        zones[0] = small_instance.num_zones
        with pytest.raises(ValueError, match="zone ids"):
            small_instance.apply_delta(
                old_to_new=np.arange(k, dtype=np.int64),
                join_delays=np.zeros((0, small_instance.num_servers)),
                client_zones=zones,
                client_demands=small_instance.client_demands,
            )


class TestDerivedQuantityCaches:
    def test_zone_demands_cached_and_read_only(self, small_instance):
        first = small_instance.zone_demands()
        assert first is small_instance.zone_demands()  # cached object reused
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_zone_populations_cached_and_read_only(self, small_instance):
        first = small_instance.zone_populations()
        assert first is small_instance.zone_populations()
        assert not first.flags.writeable


class TestWorldAdvanceOracle:
    """Acceptance criterion: every world advance equals a full rebuild bit for
    bit, across churn specs and policies (checked inside each call by the
    ``advance_oracle_spy`` fixture).
    """

    @pytest.mark.parametrize("spec", CHURN_SPECS, ids=["balanced", "join", "leave", "move"])
    def test_advance_matches_rebuild_oracle(self, small_scenario, spec, advance_oracle_spy):
        simulator = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec", "ranz-virc"],
            churn_spec=spec,
            seed=123,
        )
        assert len(simulator.run(num_epochs=3)) == 3 * 2
        assert advance_oracle_spy == [True] * 3

    @pytest.mark.parametrize("policy", ["incremental", "warm_start"])
    def test_advance_matches_rebuild_oracle_per_policy(
        self, small_scenario, policy, advance_oracle_spy
    ):
        simulator = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(15, 15, 15),
            seed=7,
            policy=policy,
        )
        simulator.run(num_epochs=4)
        assert advance_oracle_spy == [True] * 4

    @pytest.mark.parametrize(
        "server_churn",
        [None, ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05)],
        ids=["fixed", "elastic"],
    )
    def test_non_mirroring_state_takes_validated_build(
        self, small_scenario, server_churn, advance_oracle_spy, monkeypatch
    ):
        # float32 demands make the initial instance convert (copy) them, so
        # the state does not mirror its scenario and the first advance must
        # validate a fresh instance instead of aliasing the scenario arrays.
        scenario = dataclasses.replace(
            small_scenario, client_demands=small_scenario.client_demands.astype(np.float32)
        )
        validated = []
        from_scenario = CAPInstance.from_scenario.__func__

        def counting_from_scenario(cls, scenario):
            validated.append(scenario)
            return from_scenario(cls, scenario)

        monkeypatch.setattr(CAPInstance, "from_scenario", classmethod(counting_from_scenario))
        session = ChurnSimulator(
            scenario=scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(15, 15, 15),
            server_churn_spec=server_churn,
            seed=11,
        ).session(3)
        assert not session.state.instance.mirrors_arrays_of(scenario)
        session.run_epoch()
        assert advance_oracle_spy == [False]
        # The oracle validates its own rebuilt scenario; the engine validated
        # the one it advanced to.
        assert any(built is session.state.scenario for built in validated)
        while not session.done:
            session.run_epoch()
        assert advance_oracle_spy == [False, True, True]

    def test_backend_keyword_removed(self, small_scenario):
        with pytest.raises(TypeError, match="backend"):
            ChurnSimulator(scenario=small_scenario, algorithms=["grez-grec"], backend="delta")


class TestPolicySchedules:
    def test_make_policy_names(self):
        for name in POLICY_ACTIONS:
            schedule = make_policy(name)
            assert schedule.action_for_epoch(0) == name
        periodic = make_policy("every_k_epochs", period=3)
        assert periodic.name == "every_3_epochs"
        assert [periodic.action_for_epoch(e) for e in range(6)] == [
            "incremental",
            "incremental",
            "reexecute",
            "incremental",
            "incremental",
            "reexecute",
        ]

    def test_make_policy_literal_spelling(self):
        assert make_policy("every_5_epochs").period == 5

    def test_make_policy_passthrough_and_errors(self):
        schedule = PolicySchedule(name="custom", action="warm_start", period=2)
        assert make_policy(schedule) is schedule
        with pytest.raises(ValueError):
            make_policy("every_k_epochs")  # missing period
        with pytest.raises(ValueError):
            make_policy("nonsense")
        with pytest.raises(ValueError):
            PolicySchedule(name="bad", action="nonsense")
        for budget in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="migration_budget"):
                PolicySchedule(name="bad", action="warm_start", migration_budget=budget)

    def test_policy_controls_computed_fields(self, small_scenario):
        def run(policy, **kw):
            return ChurnSimulator(
                scenario=small_scenario,
                algorithms=["grez-grec"],
                churn_spec=ChurnSpec(10, 10, 10),
                seed=5,
                policy=policy,
                **kw,
            ).run(num_epochs=2)

        for record in run("reexecute"):
            assert record.action == "reexecute"
            assert record.pqos_adopted == record.pqos_reexecuted
            assert not math.isnan(record.pqos_incremental)
        for record in run("incremental"):
            assert record.action == "incremental"
            assert math.isnan(record.pqos_reexecuted)
            assert record.pqos_adopted == record.pqos_incremental
        for record in run("warm_start"):
            assert record.action == "warm_start"
            assert math.isnan(record.pqos_reexecuted)
            assert not math.isnan(record.pqos_adopted)
            # Warm start repairs from the carried-over assignment, never below it.
            assert record.pqos_adopted >= record.pqos_after - 1e-12
        periodic = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(10, 10, 10),
            seed=5,
            policy="every_k_epochs",
            policy_period=2,
        ).run(num_epochs=4)
        assert [r.action for r in periodic] == [
            "incremental",
            "reexecute",
            "incremental",
            "reexecute",
        ]
        assert math.isnan(periodic[0].pqos_reexecuted)  # epoch 0: incremental
        assert not math.isnan(periodic[1].pqos_reexecuted)  # epoch 1: scheduled re-execute


class TestStreaming:
    def test_stream_is_lazy_generator(self, small_scenario):
        simulator = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-virc"],
            churn_spec=ChurnSpec(5, 5, 5),
            seed=2,
            policy="incremental",
        )
        stream = simulator.stream(num_epochs=50)
        first = next(stream)
        assert isinstance(first, EpochRecord)
        assert first.epoch == 0
        stream.close()  # consuming only a prefix is fine — nothing is buffered

    def test_stream_matches_run(self, small_scenario):
        def sim():
            return ChurnSimulator(
                scenario=small_scenario,
                algorithms=["grez-virc"],
                churn_spec=ChurnSpec(10, 10, 10),
                seed=9,
            )

        assert list(sim().stream(2)) == sim().run(2)

    def test_record_row_matches_fields(self, small_scenario):
        record = ChurnSimulator(
            scenario=small_scenario, algorithms=["grez-virc"], seed=0,
            churn_spec=ChurnSpec(5, 5, 5),
        ).run(1)[0]
        row = record.row()
        assert len(row) == len(EpochRecord.FIELDS)
        assert row[EpochRecord.FIELDS.index("algorithm")] == "grez-virc"


class TestSimulationState:
    def test_each_state_owns_an_arena(self, small_scenario):
        instance = CAPInstance.from_scenario(small_scenario)
        first = SimulationState(scenario=small_scenario, instance=instance, assignments={})
        second = SimulationState(scenario=small_scenario, instance=instance, assignments={})
        assert isinstance(first.arena, EpochArena)
        assert first.arena is not second.arena


class TestChurnEdgeCases:
    """Satellite: incremental_reassign (and the pipeline) on degenerate batches."""

    def _advance(self, scenario, batch):
        churn = apply_churn(scenario.population, batch)
        new_scenario = scenario.apply_churn_delta(churn)
        return churn, new_scenario, CAPInstance.from_scenario(new_scenario)

    def test_empty_churn_batch(self, small_scenario, small_instance):
        from repro.core.registry import solve as registry_solve
        from repro.dynamics.policies import carry_over_assignment, incremental_reassign

        old = registry_solve(small_instance, "grez-grec", seed=0)
        churn, _, new_instance = self._advance(small_scenario, ChurnBatch())
        assert new_instance.num_clients == small_instance.num_clients
        carried = carry_over_assignment(old, churn, new_instance)
        np.testing.assert_array_equal(carried.contact_of_client, old.contact_of_client)
        repaired = incremental_reassign(old, new_instance)
        assert repaired.pqos(new_instance) == pytest.approx(old.pqos(small_instance))

    def test_all_clients_leave(self, small_scenario, small_instance):
        from repro.core.registry import solve as registry_solve
        from repro.dynamics.policies import carry_over_assignment, incremental_reassign

        old = registry_solve(small_instance, "grez-grec", seed=0)
        batch = ChurnBatch(leave_indices=np.arange(small_instance.num_clients))
        churn, _, new_instance = self._advance(small_scenario, batch)
        assert new_instance.num_clients == 0
        carried = carry_over_assignment(old, churn, new_instance)
        assert carried.contact_of_client.size == 0
        assert carried.pqos(new_instance) == 1.0  # vacuously all clients have QoS
        assert not carried.capacity_exceeded  # no clients, no load
        repaired = incremental_reassign(old, new_instance)
        assert repaired.contact_of_client.size == 0
        assert repaired.pqos(new_instance) == 1.0

    def test_join_only_batch(self, small_scenario, small_instance):
        from repro.core.registry import solve as registry_solve
        from repro.dynamics.policies import incremental_reassign

        old = registry_solve(small_instance, "grez-grec", seed=0)
        rng = np.random.default_rng(3)
        join_nodes = rng.integers(0, small_scenario.topology.num_nodes, size=25)
        join_zones = rng.integers(0, small_scenario.num_zones, size=25)
        batch = ChurnBatch(join_nodes=join_nodes, join_zones=join_zones)
        churn, _, new_instance = self._advance(small_scenario, batch)
        assert new_instance.num_clients == small_instance.num_clients + 25
        repaired = incremental_reassign(old, new_instance)
        assert repaired.contact_of_client.size == new_instance.num_clients
        np.testing.assert_array_equal(repaired.zone_to_server, old.zone_to_server)
        assert repaired.contact_of_client.min() >= 0

    def test_zone_left_empty_after_churn(self, small_scenario, small_instance):
        from repro.core.registry import solve as registry_solve
        from repro.dynamics.policies import incremental_reassign

        zone = int(small_instance.client_zones[0])
        members = np.flatnonzero(small_instance.client_zones == zone)
        batch = ChurnBatch(leave_indices=members)
        churn, _, new_instance = self._advance(small_scenario, batch)
        assert new_instance.zone_populations()[zone] == 0
        assert new_instance.zone_demands()[zone] == 0.0
        old = registry_solve(small_instance, "grez-grec", seed=0)
        repaired = incremental_reassign(old, new_instance)
        assert repaired.contact_of_client.size == new_instance.num_clients
        # The emptied zone stays hosted (zones never churn), just demandless.
        assert 0 <= repaired.zone_to_server[zone] < new_instance.num_servers


class TestAdoptedNameNormalisation:
    def test_algorithm_name_does_not_compound_across_epochs(self, small_scenario, monkeypatch):
        """Repair suffixes must not accumulate epoch over epoch."""
        import repro.dynamics.engine as engine_module

        seen = []
        original = engine_module.warm_start_refine

        def spy(instance, assignment, **kwargs):
            seen.append(assignment.algorithm)
            return original(instance, assignment, **kwargs)

        monkeypatch.setattr(engine_module, "warm_start_refine", spy)
        ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(10, 10, 10),
            seed=0,
            policy="warm_start",
        ).run(num_epochs=3)
        # Every epoch starts from the *base* name + one carry-over suffix.
        assert seen == ["grez-grec (carried over)"] * 3
