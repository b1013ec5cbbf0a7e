"""Tests for repro.dynamics.degradation — the graceful-degradation layer.

Covers the FIFO degraded pool (including abandonment), the deterministic
batch-rewriting admission control, the evacuation host pick used by
``remap_assignment_servers`` when no server has free capacity, and the
sparse backend's candidate re-cover guard under server churn.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.core.assignment import Assignment
from repro.core.problem import CAPInstance
from repro.dynamics.degradation import (
    AdmissionPolicy,
    DegradedPool,
    admission_control,
    pick_evacuation_host,
)
from repro.dynamics.events import ChurnBatch
from repro.dynamics.infrastructure import ServerChurnResult
from repro.dynamics.policies import remap_assignment_servers
from repro.world.clients import ClientPopulation
from repro.world.servers import ServerSet

from tests.conftest import make_small_config


def _population(zones, nodes=None):
    zones = np.asarray(zones, dtype=np.int64)
    if nodes is None:
        nodes = np.arange(zones.size, dtype=np.int64)
    return ClientPopulation(nodes=nodes, zones=zones)


class TestDegradedPool:
    def test_push_pop_is_fifo(self):
        pool = DegradedPool()
        pool.push([10, 11], [0, 1], epoch=0)
        pool.push([12], [2], epoch=1)
        assert pool.size == 3
        nodes, zones = pool.pop_front(2)
        np.testing.assert_array_equal(nodes, [10, 11])
        np.testing.assert_array_equal(zones, [0, 1])
        assert pool.size == 1
        np.testing.assert_array_equal(pool.shed_epochs, [1])

    def test_pop_more_than_size_raises(self):
        pool = DegradedPool()
        pool.push([1], [0])
        with pytest.raises(ValueError):
            pool.pop_front(2)

    def test_mismatched_arrays_raise(self):
        with pytest.raises(ValueError):
            DegradedPool(nodes=np.arange(2), zones=np.arange(3))
        pool = DegradedPool()
        with pytest.raises(ValueError):
            pool.push([1, 2], [0])

    def test_expire_drops_only_old_entries(self):
        pool = DegradedPool()
        pool.push([1], [0], epoch=0)
        pool.push([2], [0], epoch=4)
        # At epoch 5 with patience 2, entries shed at epoch <= 3 abandon.
        assert pool.expire(5, 2) == 1
        assert pool.size == 1
        np.testing.assert_array_equal(pool.nodes, [2])
        # None = infinite patience: nothing ever expires.
        assert pool.expire(100, None) == 0
        assert pool.size == 1


class TestAdmissionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_load_factor=0.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(readmit_load_factor=1.2, max_load_factor=1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(patience_epochs=0)

    def test_defaults(self):
        policy = AdmissionPolicy()
        assert policy.patience_epochs is None
        assert policy.readmit_load_factor < policy.max_load_factor


class TestAdmissionControl:
    POLICY = AdmissionPolicy()

    def _run(self, batch, population, capacity, pool=None, seed=0, epoch=0, policy=None):
        # stream_bps=1 keeps the quadratic demand numbers human-readable:
        # a zone with population p demands p * (p + 1).
        return admission_control(
            batch,
            population,
            num_zones=4,
            stream_bps=1.0,
            total_capacity=capacity,
            pool=pool if pool is not None else DegradedPool(),
            policy=policy or self.POLICY,
            rng=np.random.default_rng(seed),
            epoch=epoch,
        )

    def test_feasible_batch_is_untouched_and_consumes_no_rng(self):
        population = _population([0, 0, 1])
        batch = ChurnBatch(join_nodes=[9], join_zones=[2])
        rng = np.random.default_rng(7)
        state_before = rng.bit_generator.state
        pool = DegradedPool()
        out, stats = admission_control(
            batch, population, 4, 1.0, 100.0, pool, self.POLICY, rng
        )
        assert out is batch
        assert stats.num_shed == 0 and stats.clients_degraded == 0
        assert stats.capacity_deficit == 0.0
        assert rng.bit_generator.state == state_before

    def test_sheds_joiners_before_survivors(self):
        # Zone 0 holds 2 clients (demand 6); 3 joins into zone 1 add 12.
        population = _population([0, 0])
        batch = ChurnBatch(join_nodes=[10, 11, 12], join_zones=[1, 1, 1])
        out, stats = self._run(batch, population, capacity=10.0)
        # 18 -> shed one joiner (-6) -> 12 -> shed another (-4) -> 8 <= 10.
        assert stats.num_shed == 2
        assert stats.clients_degraded == 2
        assert stats.capacity_deficit == 8.0
        assert out.num_joins == 1
        # Survivors were never touched.
        assert out.leave_indices.size == 0

    def test_shedding_is_deterministic_for_a_seed(self):
        population = _population([0, 0])
        batch = ChurnBatch(join_nodes=[10, 11, 12], join_zones=[1, 1, 1])
        out_a, _ = self._run(batch, population, capacity=10.0, seed=3)
        out_b, _ = self._run(batch, population, capacity=10.0, seed=3)
        np.testing.assert_array_equal(out_a.join_nodes, out_b.join_nodes)

    def test_sheds_survivors_when_joiner_shedding_is_not_enough(self):
        # 4 clients in zone 0 demand 20; no joins; capacity 10.
        population = _population([0, 0, 0, 0])
        pool = DegradedPool()
        out, stats = self._run(ChurnBatch(), population, capacity=10.0, pool=pool)
        # 20 -> -8 -> 12 -> -6 -> 6 <= 10: two survivors shed.
        assert stats.num_shed == 2
        assert out.leave_indices.size == 2
        assert pool.size == 2
        # Pool entries carry the shed clients' physical nodes.
        assert set(pool.nodes) <= set(population.nodes)

    def test_shed_mover_is_pooled_at_destination_and_move_cancelled(self):
        population = _population([0, 0, 0, 0])
        batch = ChurnBatch(move_indices=[0], move_zones=[1])
        pool = DegradedPool()
        # Capacity so tight everyone is shed.
        out, stats = self._run(batch, population, capacity=0.5, pool=pool)
        assert stats.num_shed == 4
        assert out.move_indices.size == 0
        assert sorted(out.leave_indices) == [0, 1, 2, 3]
        # Client 0 (node 0) was counted at its destination zone 1.
        zone_of_node0 = int(pool.zones[pool.nodes == 0][0])
        assert zone_of_node0 == 1

    def test_readmission_is_fifo_with_hysteresis(self):
        population = _population(np.zeros(0, dtype=np.int64))
        pool = DegradedPool()
        pool.push([20], [1], epoch=0)
        pool.push([21], [2], epoch=0)
        pool.push([22], [3], epoch=1)
        # Each re-admission into an empty zone adds 2; readmit threshold is
        # 0.9 * 5 = 4.5, so exactly two clients fit (demand 0 -> 2 -> 4).
        out, stats = self._run(ChurnBatch(), population, capacity=5.0, pool=pool)
        assert stats.num_readmitted == 2
        assert stats.clients_degraded == 1
        np.testing.assert_array_equal(out.join_nodes, [20, 21])
        np.testing.assert_array_equal(pool.nodes, [22])

    def test_abandonment_expires_before_anything_else(self):
        population = _population(np.zeros(0, dtype=np.int64))
        pool = DegradedPool()
        pool.push([20], [1], epoch=0)
        pool.push([21], [2], epoch=4)
        policy = AdmissionPolicy(patience_epochs=2, readmit_load_factor=0.001)
        out, stats = self._run(
            ChurnBatch(), population, capacity=5.0, pool=pool, epoch=5, policy=policy
        )
        # Entry from epoch 0 abandoned (5 - 2 = 3 >= 0); epoch-4 entry stays
        # (readmit threshold is too low to admit it).
        assert stats.num_abandoned == 1
        assert stats.num_readmitted == 0
        np.testing.assert_array_equal(pool.nodes, [21])


class TestPickEvacuationHost:
    def test_most_free_capacity_wins(self):
        assert pick_evacuation_host(np.array([1.0, 5.0, 3.0]), np.array([10.0, 10.0, 10.0])) == 1

    def test_all_overloaded_picks_least_relative_overload(self):
        free = np.array([-10.0, -2.0, -8.0])
        caps = np.array([100.0, 10.0, 400.0])
        # Relative overloads: -0.1, -0.2, -0.02 -> server 2.
        assert pick_evacuation_host(free, caps) == 2

    def test_ties_break_to_lowest_index(self):
        assert pick_evacuation_host(np.array([-5.0, -5.0]), np.array([10.0, 10.0])) == 0

    def test_zero_free_space_counts_as_overloaded(self):
        # free == 0 is not headroom; the relative rule still picks it over
        # a genuinely overloaded server.
        assert pick_evacuation_host(np.array([0.0, -1.0]), np.array([10.0, 10.0])) == 0

    def test_empty_fleet_raises(self):
        with pytest.raises(ValueError):
            pick_evacuation_host(np.zeros(0), np.zeros(0))


class TestRemapEvacuationWithoutFreeCapacity:
    """Satellite: fleet evacuation stays deterministic on infeasible worlds."""

    def _two_server_instance(self, capacities):
        delays = np.array(
            [
                [50.0, 300.0],
                [50.0, 300.0],
                [300.0, 50.0],
                [300.0, 50.0],
                [120.0, 60.0],
                [120.0, 60.0],
                [100.0, 100.0],
                [100.0, 100.0],
            ]
        )
        return CAPInstance(
            client_server_delays=delays,
            server_server_delays=np.array([[0.0, 30.0], [30.0, 0.0]]),
            client_zones=np.array([0, 0, 1, 1, 2, 2, 3, 3]),
            client_demands=np.full(8, 10.0),
            server_capacities=np.asarray(capacities, dtype=float),
            delay_bound=250.0,
            num_zones=4,
        )

    def test_orphaned_zone_lands_on_least_overloaded_server(self):
        # Zones 0, 1 -> server 0; zone 2 -> server 1; zone 3 was hosted by the
        # departing server 2.  Each zone demands 20; capacities (25, 15) mean
        # both survivors are already overloaded (free -15 and -5), so the
        # orphan goes to server 1 (least relative overload: -1/3 vs -3/5).
        assignment = Assignment(
            zone_to_server=np.array([0, 0, 1, 2]),
            contact_of_client=np.array([0, 0, 0, 0, 1, 1, 2, 2]),
            algorithm="test",
        )
        churn = ServerChurnResult(
            servers=ServerSet(nodes=np.array([0, 1]), capacities=np.array([25.0, 15.0])),
            old_to_new=np.array([0, 1, -1]),
            new_server_indices=np.zeros(0, dtype=np.int64),
        )
        new_instance = self._two_server_instance((25.0, 15.0))
        remapped = remap_assignment_servers(
            assignment, churn, new_instance, new_instance.client_zones
        )
        assert int(remapped.zone_to_server[3]) == 1
        # Contacts on the departed server fall back to the zone's new host.
        assert remapped.contact_of_client.max() < 2
        # Deterministic: a second call produces the identical mapping.
        again = remap_assignment_servers(
            assignment, churn, new_instance, new_instance.client_zones
        )
        np.testing.assert_array_equal(remapped.zone_to_server, again.zone_to_server)
        np.testing.assert_array_equal(remapped.contact_of_client, again.contact_of_client)


class TestSparseRecoverGuard:
    """Satellite: candidate re-cover after server churn must keep coverage."""

    @pytest.fixture(scope="class")
    def sparse_scenario(self):
        from repro.world.scenario import build_scenario

        config = make_small_config(delay_backend="sparse", num_servers=8, sparse_top_k=2)
        return build_scenario(config, seed=7)

    def test_with_servers_recovers_every_zone(self, sparse_scenario):
        matrix = sparse_scenario.client_server_delays
        # Remove the two servers zone 0's candidate set points at — the exact
        # shape of churn that used to risk a sentinel-only candidate set.
        victims = set(int(s) for s in np.asarray(matrix.zone_candidates)[0])
        keep = [i for i in range(matrix.server_nodes.size) if i not in victims]
        rebuilt = sparse_scenario.with_servers(
            ServerSet(
                nodes=sparse_scenario.servers.nodes[keep],
                capacities=sparse_scenario.servers.capacities[keep],
            )
        ).client_server_delays
        from repro.topology.delay_backends import SPARSE_FILL_DELAY_MS

        anchor_delays = rebuilt.node_server[
            rebuilt.zone_anchors[:, None], rebuilt.zone_candidates
        ]
        assert (anchor_delays < SPARSE_FILL_DELAY_MS).any(axis=1).all()

    def test_broken_recover_raises(self, sparse_scenario, monkeypatch):
        import repro.topology.delay_backends as db

        matrix = sparse_scenario.client_server_delays

        def out_of_range(node_server, anchors, width):
            return np.full((anchors.size, width), node_server.shape[1], dtype=np.int64)

        monkeypatch.setattr(db, "_candidates_from_anchors", out_of_range)
        with pytest.raises(ValueError, match="re-cover"):
            matrix.with_servers(matrix.server_nodes[:-1], matrix.node_server[:, :-1])

    def test_sentinel_only_recover_raises(self, sparse_scenario):
        from repro.topology.delay_backends import SPARSE_FILL_DELAY_MS

        matrix = sparse_scenario.client_server_delays
        # Simulate a broken rebuild: the node->server table degenerates to
        # all-sentinel rows, so even in-range candidates cover nothing.
        nodes = matrix.server_nodes[:-1]
        sentinel_table = np.full((matrix.node_server.shape[0], nodes.size), SPARSE_FILL_DELAY_MS)
        with pytest.raises(ValueError, match="sentinel-only"):
            matrix.with_servers(nodes, sentinel_table)
