"""Tests for repro.dynamics.policies and repro.dynamics.engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import CAPACITY_TOLERANCE, Assignment
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.core.validation import validate_assignment
from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.events import apply_churn
from repro.dynamics.policies import carry_over_assignment, incremental_reassign, reassign


@pytest.fixture(scope="module")
def churned(small_scenario):
    """One churn batch applied to the shared small scenario."""
    batch = generate_churn(small_scenario, ChurnSpec(30, 30, 30), seed=11)
    churn = apply_churn(small_scenario.population, batch)
    new_scenario = small_scenario.with_population(churn.population)
    return churn, new_scenario


class TestCarryOver:
    def test_dimensions_and_zone_map_preserved(self, small_scenario, small_instance, churned):
        churn, new_scenario = churned
        old = registry_solve(small_instance, "grez-grec", seed=0)
        new_instance = CAPInstance.from_scenario(new_scenario)
        carried = carry_over_assignment(old, churn, new_instance)
        assert carried.contact_of_client.size == new_instance.num_clients
        np.testing.assert_array_equal(carried.zone_to_server, old.zone_to_server)
        assert "carried over" in carried.algorithm

    def test_survivors_keep_contact_server(self, small_instance, churned):
        churn, new_scenario = churned
        old = registry_solve(small_instance, "grez-grec", seed=0)
        new_instance = CAPInstance.from_scenario(new_scenario)
        carried = carry_over_assignment(old, churn, new_instance)
        survivors_old = np.flatnonzero(churn.old_to_new >= 0)
        np.testing.assert_array_equal(
            carried.contact_of_client[churn.old_to_new[survivors_old]],
            old.contact_of_client[survivors_old],
        )

    def test_new_clients_connect_to_their_target(self, small_instance, churned):
        churn, new_scenario = churned
        old = registry_solve(small_instance, "grez-virc", seed=0)
        new_instance = CAPInstance.from_scenario(new_scenario)
        carried = carry_over_assignment(old, churn, new_instance)
        targets = carried.targets_of_clients(new_instance)
        np.testing.assert_array_equal(
            carried.contact_of_client[churn.new_client_indices],
            targets[churn.new_client_indices],
        )


class TestReassignPolicies:
    def test_reassign_runs_solver_from_scratch(self, churned):
        churn, new_scenario = churned
        new_instance = CAPInstance.from_scenario(new_scenario)
        fresh = reassign(new_instance, "grez-grec", seed=0)
        assert fresh.algorithm == "grez-grec"
        assert validate_assignment(new_instance, fresh).ok

    def test_incremental_keeps_zone_map(self, small_instance, churned):
        churn, new_scenario = churned
        old = registry_solve(small_instance, "grez-grec", seed=0)
        new_instance = CAPInstance.from_scenario(new_scenario)
        repaired = incremental_reassign(old, new_instance)
        np.testing.assert_array_equal(repaired.zone_to_server, old.zone_to_server)
        assert "incremental" in repaired.algorithm
        assert repaired.contact_of_client.size == new_instance.num_clients

    def test_reexecution_restores_interactivity(self, small_instance, churned):
        """The paper's Table 3 claim: re-execution recovers the pQoS lost to churn."""
        churn, new_scenario = churned
        old = registry_solve(small_instance, "grez-grec", seed=0)
        new_instance = CAPInstance.from_scenario(new_scenario)
        stale = carry_over_assignment(old, churn, new_instance)
        fresh = reassign(new_instance, "grez-grec", seed=0)
        assert fresh.pqos(new_instance) >= stale.pqos(new_instance) - 1e-9


class TestChurnSimulator:
    def test_one_epoch_records_all_algorithms(self, small_scenario):
        simulator = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec", "ranz-virc"],
            churn_spec=ChurnSpec(20, 20, 20),
            seed=0,
        )
        records = simulator.run(num_epochs=1)
        assert len(records) == 2
        assert {r.algorithm for r in records} == {"grez-grec", "ranz-virc"}
        for record in records:
            assert isinstance(record, EpochRecord)
            assert 0.0 <= record.pqos_before <= 1.0
            assert 0.0 <= record.pqos_after <= 1.0
            assert 0.0 <= record.pqos_reexecuted <= 1.0
            assert 0.0 <= record.pqos_incremental <= 1.0
            assert record.num_clients_before == small_scenario.num_clients

    def test_multi_epoch_population_evolves(self, small_scenario):
        simulator = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-virc"],
            churn_spec=ChurnSpec(30, 10, 10),
            seed=1,
        )
        records = simulator.run(num_epochs=3)
        assert [r.epoch for r in records] == [0, 1, 2]
        # +20 clients per epoch.
        assert records[1].num_clients_before == records[0].num_clients_after
        assert records[2].num_clients_after == small_scenario.num_clients + 3 * 20

    def test_invalid_epochs(self, small_scenario):
        simulator = ChurnSimulator(scenario=small_scenario, algorithms=["grez-virc"])
        with pytest.raises(ValueError):
            simulator.run(num_epochs=0)

    def test_deterministic(self, small_scenario):
        def run_once():
            sim = ChurnSimulator(
                scenario=small_scenario,
                algorithms=["grez-grec"],
                churn_spec=ChurnSpec(20, 20, 20),
                seed=42,
            )
            return sim.run(num_epochs=1)[0]

        a, b = run_once(), run_once()
        assert a.pqos_before == b.pqos_before
        assert a.pqos_after == b.pqos_after
        assert a.pqos_reexecuted == b.pqos_reexecuted


class TestCarryOverCapacityFlag:
    """carry_over_assignment audits capacities against the *new* instance
    instead of copying the pre-churn flag."""

    @staticmethod
    def _identity_churn(num_clients):
        from repro.dynamics.events import ChurnResult
        from repro.world.clients import ClientPopulation

        return ChurnResult(
            population=ClientPopulation(
                nodes=np.zeros(num_clients, dtype=np.int64),
                zones=np.zeros(num_clients, dtype=np.int64),
            ),
            old_to_new=np.arange(num_clients, dtype=np.int64),
            new_client_indices=np.zeros(0, dtype=np.int64),
        )

    def test_stale_true_flag_cleared_when_loads_fit(self, tiny_instance):
        ok = registry_solve(tiny_instance, "grez-grec", seed=0)
        stale = Assignment(
            zone_to_server=ok.zone_to_server,
            contact_of_client=ok.contact_of_client,
            algorithm="stale",
            capacity_exceeded=True,  # wrong: capacities (1000 each) easily fit
        )
        churn = self._identity_churn(tiny_instance.num_clients)
        carried = carry_over_assignment(stale, churn, tiny_instance)
        assert not carried.capacity_exceeded

    @pytest.mark.parametrize(
        "overshoot, exceeded",
        [(CAPACITY_TOLERANCE / 2, False), (2 * CAPACITY_TOLERANCE, True)],
        ids=["within", "beyond"],
    )
    def test_flag_forgives_the_shared_tolerance(self, overshoot, exceeded):
        from tests.conftest import make_tiny_instance

        # Zone map [0, 1, 2, 1] with direct contacts loads the servers
        # [20, 40, 20]; server 1's capacity sits ``overshoot`` below its load.
        instance = make_tiny_instance(capacities=(1000.0, 40.0 / (1.0 + overshoot), 1000.0))
        zone_map = np.array([0, 1, 2, 1])
        old = Assignment(
            zone_to_server=zone_map,
            contact_of_client=zone_map[instance.client_zones],
            algorithm="manual",
        )
        churn = self._identity_churn(instance.num_clients)
        carried = carry_over_assignment(old, churn, instance)
        assert carried.capacity_exceeded is exceeded
        assert old.is_capacity_feasible(instance) is not exceeded

    def test_overload_after_join_heavy_churn_sets_flag(self):
        from repro.core.problem import CAPInstance
        from repro.dynamics.events import ChurnResult
        from repro.world.clients import ClientPopulation
        from tests.conftest import make_tiny_instance

        old_instance = make_tiny_instance(capacities=(45.0, 45.0, 45.0))
        # Zones (0,1)→server0 and (2,3)→server1: 40 ≤ 45 on both, feasible.
        old = Assignment(
            zone_to_server=np.array([0, 0, 1, 1]),
            contact_of_client=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
            algorithm="manual",
            capacity_exceeded=False,
        )
        assert old.is_capacity_feasible(old_instance)
        # Three clients join zone 0: its demand grows to 50, server 0 now
        # carries 70 > 45 — the carried-over assignment is overloaded.
        k_new = 11
        new_zones = np.concatenate([old_instance.client_zones, [0, 0, 0]])
        new_instance = CAPInstance(
            client_server_delays=np.vstack(
                [old_instance.client_server_delays.toarray(), np.full((3, 3), 60.0)]
            ),
            server_server_delays=old_instance.server_server_delays,
            client_zones=new_zones,
            client_demands=np.full(k_new, 10.0),
            server_capacities=old_instance.server_capacities,
            delay_bound=old_instance.delay_bound,
            num_zones=old_instance.num_zones,
        )
        churn = ChurnResult(
            population=ClientPopulation(nodes=np.zeros(k_new, dtype=np.int64), zones=new_zones),
            old_to_new=np.arange(8, dtype=np.int64),
            new_client_indices=np.array([8, 9, 10]),
        )
        carried = carry_over_assignment(old, churn, new_instance)
        assert carried.capacity_exceeded

    def test_reusable_out_buffer(self, small_scenario, small_instance, churned):
        churn, new_scenario = churned
        old = registry_solve(small_instance, "grez-grec", seed=0)
        new_instance = CAPInstance.from_scenario(new_scenario)
        plain = carry_over_assignment(old, churn, new_instance)
        buffer = np.empty(new_instance.num_clients + 32, dtype=np.int64)
        buffered = carry_over_assignment(old, churn, new_instance, out=buffer)
        np.testing.assert_array_equal(plain.contact_of_client, buffered.contact_of_client)
        assert buffered.contact_of_client.base is buffer  # aliases the scratch buffer
