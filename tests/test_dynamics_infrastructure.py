"""Tests for elastic infrastructure churn: server join/leave/drift batches,
scenario server deltas, zone migration costs, and the engine's
world advance against the rebuild oracle under combined client+server churn.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.events import apply_churn
from repro.dynamics.infrastructure import (
    ServerChurnBatch,
    ServerChurnSpec,
    apply_server_churn,
    generate_server_churn,
)
from repro.dynamics.migration import MigrationCostModel, count_zone_migrations
from repro.dynamics.policies import carry_over_assignment, remap_assignment_servers
from repro.world.servers import MBPS

#: Client churn mixes crossed with the server churn mixes below in the
#: acceptance property test.
CLIENT_CHURN = [ChurnSpec(20, 20, 20), ChurnSpec(5, 30, 10)]

#: Server churn mixes: grow, shrink, drift-only, and everything at once.
SERVER_CHURN = [
    ServerChurnSpec(num_joins=1),
    ServerChurnSpec(num_leaves=1),
    ServerChurnSpec(capacity_drift=0.1),
    ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05),
]


class TestServerChurnSpec:
    def test_defaults_are_static(self):
        spec = ServerChurnSpec()
        assert spec.is_static
        assert not ServerChurnSpec(num_joins=1).is_static
        assert not ServerChurnSpec(capacity_drift=0.01).is_static

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerChurnSpec(num_joins=-1)
        with pytest.raises(ValueError):
            ServerChurnSpec(capacity_drift=-0.1)
        with pytest.raises(ValueError):
            ServerChurnSpec(capacity_drift=float("nan"))
        with pytest.raises(ValueError):
            ServerChurnSpec(join_capacity_mbps=0.0)
        with pytest.raises(ValueError):
            ServerChurnSpec(min_capacity_mbps=0.0)


class TestGenerateServerChurn:
    def test_deterministic(self, small_scenario):
        spec = ServerChurnSpec(num_joins=2, num_leaves=2, capacity_drift=0.1)
        a = generate_server_churn(
            small_scenario.servers, spec, num_nodes=small_scenario.topology.num_nodes, seed=5
        )
        b = generate_server_churn(
            small_scenario.servers, spec, num_nodes=small_scenario.topology.num_nodes, seed=5
        )
        np.testing.assert_array_equal(a.join_nodes, b.join_nodes)
        np.testing.assert_array_equal(a.leave_indices, b.leave_indices)
        np.testing.assert_array_equal(a.capacity_factors, b.capacity_factors)

    def test_leaves_capped_to_preserve_fleet(self, small_scenario):
        spec = ServerChurnSpec(num_leaves=1000)
        batch = generate_server_churn(small_scenario.servers, spec, seed=0)
        assert batch.num_leaves == small_scenario.num_servers - 1
        result = apply_server_churn(small_scenario.servers, batch)
        assert result.servers.num_servers == 1

    def test_joins_need_num_nodes(self, small_scenario):
        with pytest.raises(ValueError, match="num_nodes"):
            generate_server_churn(small_scenario.servers, ServerChurnSpec(num_joins=1), seed=0)

    def test_joins_prefer_unoccupied_nodes(self, small_scenario):
        spec = ServerChurnSpec(num_joins=3)
        batch = generate_server_churn(
            small_scenario.servers, spec, num_nodes=small_scenario.topology.num_nodes, seed=1
        )
        assert batch.num_joins == 3
        assert not np.isin(batch.join_nodes, small_scenario.servers.nodes).any()
        np.testing.assert_array_equal(
            batch.join_capacities, np.full(3, spec.join_capacity_mbps * MBPS)
        )

    def test_drift_factors_positive(self, small_scenario):
        batch = generate_server_churn(
            small_scenario.servers, ServerChurnSpec(capacity_drift=0.5), seed=2
        )
        assert batch.capacity_factors.shape == (small_scenario.num_servers,)
        assert (batch.capacity_factors > 0).all()


class TestApplyServerChurn:
    def test_empty_batch_is_identity(self, small_scenario):
        """Satellite edge case: an empty server batch changes nothing."""
        result = apply_server_churn(small_scenario.servers, ServerChurnBatch())
        assert result.is_identity
        np.testing.assert_array_equal(result.servers.nodes, small_scenario.servers.nodes)
        np.testing.assert_array_equal(
            result.servers.capacities, small_scenario.servers.capacities
        )
        np.testing.assert_array_equal(
            result.old_to_new, np.arange(small_scenario.num_servers)
        )
        assert result.new_server_indices.size == 0

    def test_layout_survivors_then_joiners(self, small_scenario):
        servers = small_scenario.servers
        batch = ServerChurnBatch(
            join_nodes=np.array([0, 1]),
            join_capacities=np.array([5.0 * MBPS, 6.0 * MBPS]),
            leave_indices=np.array([1]),
        )
        result = apply_server_churn(servers, batch)
        assert result.servers.num_servers == servers.num_servers + 1
        assert result.old_to_new[1] == -1
        survivors = np.flatnonzero(result.old_to_new >= 0)
        np.testing.assert_array_equal(
            result.old_to_new[survivors], np.arange(survivors.size)
        )
        np.testing.assert_array_equal(
            result.servers.nodes[: survivors.size], servers.nodes[survivors]
        )
        np.testing.assert_array_equal(
            result.servers.nodes[survivors.size:], batch.join_nodes
        )
        assert not result.is_identity

    def test_drift_applied_with_floor(self, small_scenario):
        servers = small_scenario.servers
        factors = np.full(servers.num_servers, 1e-12)
        batch = ServerChurnBatch(capacity_factors=factors, min_capacity=2.0 * MBPS)
        result = apply_server_churn(servers, batch)
        np.testing.assert_allclose(
            result.servers.capacities, np.full(servers.num_servers, 2.0 * MBPS)
        )

    def test_rejects_bad_batches(self, small_scenario):
        servers = small_scenario.servers
        with pytest.raises(ValueError, match="out of range"):
            apply_server_churn(servers, ServerChurnBatch(leave_indices=[99]))
        with pytest.raises(ValueError, match="distinct"):
            apply_server_churn(servers, ServerChurnBatch(leave_indices=[0, 0]))
        with pytest.raises(ValueError, match="at least one server"):
            apply_server_churn(
                servers, ServerChurnBatch(leave_indices=np.arange(servers.num_servers))
            )


class TestScenarioServerDelta:
    @pytest.mark.parametrize("spec", SERVER_CHURN, ids=["join", "leave", "drift", "mixed"])
    def test_bit_identical_to_with_servers(self, small_scenario, spec):
        batch = generate_server_churn(
            small_scenario.servers, spec, num_nodes=small_scenario.topology.num_nodes, seed=11
        )
        churn = apply_server_churn(small_scenario.servers, batch)
        rebuilt = small_scenario.with_servers(churn.servers)
        delta = small_scenario.apply_server_delta(churn)
        np.testing.assert_array_equal(
            rebuilt.client_server_delays.toarray(), delta.client_server_delays.toarray()
        )
        np.testing.assert_array_equal(
            rebuilt.server_server_delays, delta.server_server_delays
        )
        np.testing.assert_array_equal(
            rebuilt.servers.capacities, delta.servers.capacities
        )
        assert delta.population is small_scenario.population
        assert delta.client_demands is small_scenario.client_demands

    def test_fleet_mismatch_rejected(self, small_scenario):
        batch = generate_server_churn(
            small_scenario.servers, ServerChurnSpec(num_leaves=1), seed=3
        )
        churn = apply_server_churn(small_scenario.servers, batch)
        shrunk = small_scenario.apply_server_delta(churn)
        with pytest.raises(ValueError, match="generated against"):
            shrunk.apply_server_delta(churn)  # churn refers to the *old* fleet


class TestInstanceServerDelta:
    """The engine's instance path after server churn: the scenario delta,
    then a zero-copy :meth:`CAPInstance.from_scenario_unchecked`."""

    @pytest.mark.parametrize("spec", SERVER_CHURN, ids=["join", "leave", "drift", "mixed"])
    def test_bit_identical_to_rebuild(self, small_scenario, small_instance, spec):
        batch = generate_server_churn(
            small_scenario.servers, spec, num_nodes=small_scenario.topology.num_nodes, seed=7
        )
        churn = apply_server_churn(small_scenario.servers, batch)
        new_scenario = small_scenario.apply_server_delta(churn)
        rebuilt = CAPInstance.from_scenario(small_scenario.with_servers(churn.servers))
        delta = CAPInstance.from_scenario_unchecked(new_scenario)
        np.testing.assert_array_equal(
            rebuilt.client_server_delays.toarray(),
            delta.client_server_delays.toarray(),
        )
        np.testing.assert_array_equal(rebuilt.server_server_delays, delta.server_server_delays)
        np.testing.assert_array_equal(rebuilt.server_capacities, delta.server_capacities)
        np.testing.assert_array_equal(rebuilt.client_zones, delta.client_zones)
        np.testing.assert_array_equal(rebuilt.client_demands, delta.client_demands)
        assert delta.delay_bound == rebuilt.delay_bound
        assert delta.num_zones == rebuilt.num_zones
        # A server batch cannot touch the clients: their arrays carry over.
        assert delta.client_zones is small_scenario.population.zones
        assert delta.client_demands is small_scenario.client_demands
        np.testing.assert_array_equal(delta.zone_demands(), small_instance.zone_demands())


class TestRemapAssignmentServers:
    def test_identity_is_noop(self, small_scenario, small_instance):
        assignment = registry_solve(small_instance, "grez-grec", seed=0)
        churn = apply_server_churn(small_scenario.servers, ServerChurnBatch())
        remapped = remap_assignment_servers(
            assignment, churn, small_instance, small_instance.client_zones
        )
        assert remapped is assignment

    def test_server_leaving_while_hosting_zones(self, small_scenario, small_instance):
        """Satellite edge case: a departing server's zones are evacuated."""
        assignment = registry_solve(small_instance, "grez-grec", seed=0)
        # Remove the server hosting the most zones — the worst case.
        victim = int(np.bincount(assignment.zone_to_server,
                                 minlength=small_instance.num_servers).argmax())
        assert (assignment.zone_to_server == victim).any()
        batch = ServerChurnBatch(leave_indices=np.array([victim]))
        churn = apply_server_churn(small_scenario.servers, batch)
        new_scenario = small_scenario.apply_server_delta(churn)
        new_instance = CAPInstance.from_scenario(new_scenario)

        remapped = remap_assignment_servers(
            assignment, churn, new_instance, small_instance.client_zones
        )
        assert remapped.zone_to_server.min() >= 0
        assert remapped.zone_to_server.max() < new_instance.num_servers
        assert remapped.contact_of_client.min() >= 0
        assert remapped.contact_of_client.max() < new_instance.num_servers
        # Every zone the victim hosted counts as a forced migration.
        zones, clients = count_zone_migrations(
            assignment.zone_to_server,
            remapped.zone_to_server,
            new_instance.zone_populations(),
            server_old_to_new=churn.old_to_new,
        )
        assert zones >= int((assignment.zone_to_server == victim).sum())
        assert clients > 0

    def test_capacity_drift_can_make_assignment_infeasible(
        self, small_scenario, small_instance
    ):
        """Satellite edge case: hard capacity drift flags the carried assignment."""
        assignment = registry_solve(small_instance, "grez-grec", seed=0)
        assert assignment.is_capacity_feasible(small_instance)
        factors = np.full(small_instance.num_servers, 0.01)
        batch = ServerChurnBatch(capacity_factors=factors, min_capacity=0.1 * MBPS)
        churn = apply_server_churn(small_scenario.servers, batch)
        new_scenario = small_scenario.apply_server_delta(churn)
        new_instance = CAPInstance.from_scenario(new_scenario)
        remapped = remap_assignment_servers(
            assignment, churn, new_instance, small_instance.client_zones
        )
        assert not remapped.is_capacity_feasible(new_instance)
        # And the engine's carry-over recomputes the flag against the drifted fleet.
        from repro.dynamics.events import ChurnBatch

        client_churn = apply_churn(new_scenario.population, ChurnBatch())
        carried = carry_over_assignment(remapped, client_churn, new_instance)
        assert carried.capacity_exceeded


class TestMigrationAccounting:
    def test_count_zone_migrations_basics(self):
        old = np.array([0, 1, 2, 0])
        pops = np.array([10, 20, 30, 40])
        assert count_zone_migrations(old, old.copy(), pops) == (0, 0)
        new = np.array([1, 1, 2, 0])
        assert count_zone_migrations(old, new, pops) == (1, 10)

    def test_departed_host_counts_as_forced_migration(self):
        old = np.array([0, 1])
        old_to_new = np.array([-1, 0])  # server 0 left
        new = np.array([0, 0])
        zones, clients = count_zone_migrations(
            old, new, np.array([5, 7]), server_old_to_new=old_to_new
        )
        assert (zones, clients) == (1, 5)

    def test_cost_model(self):
        model = MigrationCostModel(
            cost_per_client=2.0, freeze_ms_per_client=1.5, freeze_ms_per_zone=10.0
        )
        charge = model.charge(2, 30)
        assert charge.cost == 60.0
        assert charge.freeze_ms == 2 * 10.0 + 30 * 1.5
        assert model.charge(0, 0).cost == 0.0
        free = MigrationCostModel().charge(2, 30)
        assert free.cost == 0.0 and free.freeze_ms == 0.0
        with pytest.raises(ValueError):
            MigrationCostModel(cost_per_client=-1.0)
        for name in ("cost_per_client", "freeze_ms_per_client", "freeze_ms_per_zone"):
            with pytest.raises(ValueError, match=name):
                MigrationCostModel(**{name: float("nan")})

    def test_zero_charge_is_class_constant_not_field(self):
        import dataclasses

        from repro.dynamics.migration import MigrationCharge

        assert [f.name for f in dataclasses.fields(MigrationCharge)] == [
            "zones_migrated",
            "clients_migrated",
            "cost",
            "freeze_ms",
        ]
        charge = MigrationCostModel().charge(0, 0)
        assert charge is MigrationCharge.ZERO
        assert charge.ZERO is MigrationCharge.ZERO  # not shadowed per-instance

    def test_charge_zone_moves_helper(self):
        from repro.dynamics.migration import charge_zone_moves

        model = MigrationCostModel(cost_per_client=2.0)
        charge = charge_zone_moves(
            model, np.array([0, 1]), np.array([1, 1]), np.array([4, 6])
        )
        assert (charge.zones_migrated, charge.clients_migrated, charge.cost) == (1, 4, 8.0)


class TestEngineElasticEquivalence:
    """Acceptance criterion: under combined client+server churn every world
    advance equals a full rebuild bit for bit, across churn mixes × policies
    (checked inside each call by the ``advance_oracle_spy`` fixture).
    """

    @pytest.mark.parametrize("server_spec", SERVER_CHURN, ids=["join", "leave", "drift", "mixed"])
    @pytest.mark.parametrize("client_spec", CLIENT_CHURN, ids=["balanced", "leave-heavy"])
    def test_advance_matches_rebuild_oracle(
        self, small_scenario, client_spec, server_spec, advance_oracle_spy
    ):
        ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=client_spec,
            server_churn_spec=server_spec,
            migration_cost=MigrationCostModel(cost_per_client=1.0),
            seed=123,
        ).run(num_epochs=3)
        assert advance_oracle_spy == [True] * 3

    @pytest.mark.parametrize("policy", ["incremental", "warm_start", "every_k_epochs"])
    def test_advance_matches_rebuild_oracle_per_policy(
        self, small_scenario, policy, advance_oracle_spy
    ):
        ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(15, 15, 15),
            server_churn_spec=ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
            seed=7,
            policy=policy,
            policy_period=2 if policy == "every_k_epochs" else 0,
        ).run(num_epochs=4)
        assert advance_oracle_spy == [True] * 4

    def test_static_server_spec_matches_no_server_spec(self, small_scenario):
        """An all-zero ServerChurnSpec replays the fixed-fleet RNG stream."""
        def run(**kwargs):
            return ChurnSimulator(
                scenario=small_scenario,
                algorithms=["grez-grec"],
                churn_spec=ChurnSpec(10, 10, 10),
                seed=9,
                **kwargs,
            ).run(num_epochs=2)

        assert run(server_churn_spec=None) == run(server_churn_spec=ServerChurnSpec())

    def test_fleet_size_tracks_churn(self, small_scenario):
        records = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(5, 5, 5),
            server_churn_spec=ServerChurnSpec(num_joins=1),
            seed=4,
        ).run(num_epochs=3)
        assert [r.num_servers_after for r in records] == [
            small_scenario.num_servers + 1 + e for e in range(3)
        ]

    def test_drift_only_epochs_keep_fleet_size(self, small_scenario):
        """Satellite edge case: all-servers-survive drift-only epochs."""
        records = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(5, 5, 5),
            server_churn_spec=ServerChurnSpec(capacity_drift=0.2),
            seed=4,
        ).run(num_epochs=3)
        assert all(r.num_servers_after == small_scenario.num_servers for r in records)
        # Drift alone forces no migrations under the incremental-free policy —
        # but re-execution may still move zones; just check the fields exist.
        assert all(r.zones_migrated >= 0 for r in records)


class TestMigrationInRecords:
    def test_incremental_policy_migrates_nothing_on_fixed_fleet(self, small_scenario):
        records = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(20, 20, 20),
            migration_cost=MigrationCostModel(cost_per_client=3.0),
            seed=2,
            policy="incremental",
        ).run(num_epochs=3)
        for record in records:
            assert record.zones_migrated == 0
            assert record.clients_migrated == 0
            assert record.migration_cost == 0.0

    def test_reexecute_policy_is_charged(self, small_scenario):
        records = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(40, 40, 40),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
            seed=2,
            policy="reexecute",
        ).run(num_epochs=3)
        assert any(r.migration_cost > 0 for r in records)
        for record in records:
            assert record.migration_cost == float(record.clients_migrated)

    def test_migration_budget_demotes_reexecution(self, small_scenario):
        """A zero budget turns every re-execution into the incremental repair."""
        def run(budget):
            return ChurnSimulator(
                scenario=small_scenario,
                algorithms=["grez-grec"],
                churn_spec=ChurnSpec(30, 30, 30),
                migration_cost=MigrationCostModel(cost_per_client=1.0),
                seed=6,
                policy="reexecute",
                policy_migration_budget=budget,
            ).run(num_epochs=3)

        capped = run(0.0)
        for record in capped:
            assert record.zones_migrated == 0
            assert record.pqos_adopted == record.pqos_incremental
        uncapped = run(None)
        assert any(r.zones_migrated > 0 for r in uncapped)
        # The label is the action taken, not the one scheduled.
        demoted = [r for r in capped if r.pqos_reexecuted != r.pqos_adopted]
        assert demoted
        assert all(r.action == "incremental" for r in demoted)
        assert all(r.action == "reexecute" for r in uncapped)

    def test_migration_fields_in_csv_row(self, small_scenario):
        from repro.dynamics.engine import EpochRecord

        record = ChurnSimulator(
            scenario=small_scenario,
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(10, 10, 10),
            migration_cost=MigrationCostModel(cost_per_client=1.0),
            seed=0,
        ).run(1)[0]
        row = record.row()
        assert row[EpochRecord.FIELDS.index("zones_migrated")] == record.zones_migrated
        assert row[EpochRecord.FIELDS.index("clients_migrated")] == record.clients_migrated
        assert row[EpochRecord.FIELDS.index("migration_cost")] == record.migration_cost
        assert row[EpochRecord.FIELDS.index("num_servers_after")] == record.num_servers_after


class TestWarmStartZoneSweep:
    def test_sweep_with_zone_moves_allowed_and_never_worsens(self, small_instance):
        from repro.core.local_search import warm_start_refine

        start = registry_solve(small_instance, "ranz-virc", seed=0)
        result = warm_start_refine(small_instance, start, consider_zone_moves=True)
        assert result.final_pqos >= result.initial_pqos

    def test_zone_sweep_recovers_evacuated_hotspot(self, tiny_instance):
        """A deliberately bad zone map is repaired by zone moves alone."""
        from repro.core.assignment import Assignment
        from repro.core.local_search import _repair_zones_sweep, warm_start_refine

        # Host every zone on server 0 — zones 1 and 2 are 300 ms away.
        zone_to_server = np.zeros(tiny_instance.num_zones, dtype=np.int64)
        contacts = np.zeros(tiny_instance.num_clients, dtype=np.int64)
        bad = Assignment(zone_to_server=zone_to_server.copy(), contact_of_client=contacts.copy())
        assert _repair_zones_sweep(tiny_instance, zone_to_server, contacts, 200) > 0
        # Zones 1 and 2 must have been re-hosted off server 0.
        assert zone_to_server[1] == 1
        assert zone_to_server[2] == 2
        # The warm-start repair runs that zone sweep before its contact sweep.
        repaired = warm_start_refine(tiny_instance, bad, consider_zone_moves=True)
        assert repaired.iterations > 0
        assert repaired.final_pqos > repaired.initial_pqos
        np.testing.assert_array_equal(repaired.assignment.zone_to_server, zone_to_server)


class TestGrantRevokeGrantCycles:
    """Repeated capacity grant -> revoke -> grant on the same servers.

    The federation arbiter re-slices capacities every epoch, so the delta
    pipeline must round-trip capacities *exactly* (no drift accumulation) and
    keep the cached zone aggregates valid across arbitrarily many cycles.
    """

    def test_capacity_cycles_round_trip_exactly(self, small_scenario, small_instance):
        """Scenario-level re-slices, as the federation engine applies them."""
        base_caps = small_scenario.servers.capacities
        current = small_scenario
        for _cycle in range(4):
            granted = current.with_server_capacities(base_caps * 2.0)
            np.testing.assert_array_equal(
                CAPInstance.from_scenario_unchecked(granted).server_capacities, base_caps * 2.0
            )
            revoked = granted.with_server_capacities(base_caps)
            instance = CAPInstance.from_scenario_unchecked(revoked)
            # Exact round trip: the original capacity vector is restored
            # bit-for-bit, and the delay matrices are the original objects.
            np.testing.assert_array_equal(instance.server_capacities, base_caps)
            assert instance.client_server_delays is small_scenario.client_server_delays
            assert instance.server_server_delays is small_scenario.server_server_delays
            np.testing.assert_array_equal(
                instance.client_server_delays.toarray(),
                small_instance.client_server_delays.toarray()
            )
            current = revoked

    def test_join_leave_join_restores_fleet_exactly(self, small_scenario):
        """Granting a server, revoking it, granting again: scenario round trip."""
        topo_nodes = small_scenario.topology.num_nodes
        m = small_scenario.num_servers
        current = small_scenario
        for _cycle in range(3):
            join_batch = ServerChurnBatch(
                join_nodes=np.array([topo_nodes - 1]),
                join_capacities=np.array([25.0 * MBPS]),
            )
            grant = apply_server_churn(current.servers, join_batch)
            grown = current.apply_server_delta(grant)
            assert grown.num_servers == m + 1

            leave_batch = ServerChurnBatch(leave_indices=np.array([m]))
            revoke = apply_server_churn(grown.servers, leave_batch)
            shrunk = grown.apply_server_delta(revoke)
            assert shrunk.num_servers == m
            # The surviving fleet is exactly the original one.
            np.testing.assert_array_equal(shrunk.servers.nodes, small_scenario.servers.nodes)
            np.testing.assert_array_equal(
                shrunk.servers.capacities, small_scenario.servers.capacities
            )
            np.testing.assert_array_equal(
                shrunk.client_server_delays.toarray(), small_scenario.client_server_delays.toarray()
            )
            np.testing.assert_array_equal(
                shrunk.server_server_delays, small_scenario.server_server_delays
            )
            current = shrunk

    def test_instance_join_leave_join_cycles_restore_instance(
        self, small_scenario, small_instance
    ):
        topo_nodes = small_scenario.topology.num_nodes
        m = small_instance.num_servers
        scenario = small_scenario
        for _cycle in range(3):
            join_batch = ServerChurnBatch(
                join_nodes=np.array([topo_nodes - 2]),
                join_capacities=np.array([30.0 * MBPS]),
            )
            grant = apply_server_churn(scenario.servers, join_batch)
            grown = scenario.apply_server_delta(grant)
            assert CAPInstance.from_scenario_unchecked(grown).num_servers == m + 1
            revoke = apply_server_churn(
                grown.servers, ServerChurnBatch(leave_indices=np.array([m]))
            )
            scenario = grown.apply_server_delta(revoke)
            instance = CAPInstance.from_scenario_unchecked(scenario)
            np.testing.assert_array_equal(
                instance.server_capacities, small_instance.server_capacities
            )
            np.testing.assert_array_equal(
                instance.client_server_delays.toarray(),
                small_instance.client_server_delays.toarray()
            )
            np.testing.assert_array_equal(
                instance.server_server_delays, small_instance.server_server_delays
            )
            np.testing.assert_array_equal(instance.zone_demands(), small_instance.zone_demands())
