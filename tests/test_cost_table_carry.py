"""GreZ's sparse cost table carried through churn (hypothesis, derandomized).

A :class:`~repro.topology.delay_backends.CompactDelayMatrix` owns a
``(zones, K)`` count of each zone's clients over the bound on each of its
candidates.  A churn delta moves the table to the next matrix and updates
it by the leavers, movers and joiners only.  These properties check that
the carried table equals a fresh build bit for bit after random join /
leave / move deltas — with empty zones, zones that empty out, every client
leaving and clients whose delay equals the bound — and that no other
transformation serves a stale table: a capacity-only delta keeps the very
matrix and its table, while a new fleet, a delay overlay or a different
bound count afresh.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import initial_cost_matrix
from repro.core.problem import CAPInstance
from repro.dynamics.events import ChurnBatch, apply_churn
from repro.world.scenario import build_scenario
from repro.utils.chunks import row_chunks
from repro.world.servers import ServerSet

from tests.conftest import make_small_config, make_wide_sparse_instance


def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(derandomize=True, deadline=None, database=None, max_examples=max_examples)


@pytest.fixture(scope="module")
def world():
    """6 servers, top-3 candidates, 16 zones for 60 clients (some start empty)."""
    config = make_small_config(
        num_servers=6, num_zones=16, num_clients=60, delay_backend="sparse", sparse_top_k=3
    )
    return build_scenario(config, seed=5)


def _scatter_reference(matrix, bound: float) -> np.ndarray:
    """The table from the densified matrix: over-bound clients per zone and candidate."""
    per_zone = np.zeros((matrix.num_zones, matrix.num_servers), dtype=np.int64)
    np.add.at(per_zone, matrix.client_zones, matrix.toarray() > bound)
    return np.take_along_axis(per_zone, matrix.sorted_candidates(), axis=1)


def _fresh(matrix, bound: float) -> np.ndarray:
    """The table a matrix without a carried one builds for the same clients."""
    return matrix.with_clients(matrix.client_nodes, matrix.client_zones).over_bound_table(bound)


def _tied_bound(matrix, rng) -> float:
    """A bound equal to some client's delay to one of its zone's candidates."""
    client = int(rng.integers(matrix.num_clients))
    delays = matrix.candidate_rows(np.array([client]))
    return float(delays[0, int(rng.integers(delays.shape[1]))])


def _random_batch(population, num_zones, num_nodes, rng, leave_all, empty_zone) -> ChurnBatch:
    num_clients = population.num_clients
    order = rng.permutation(num_clients)
    if leave_all:
        leave, move = order, order[:0]
    else:
        num_leave = int(rng.integers(0, num_clients // 3 + 1))
        num_move = int(rng.integers(0, num_clients // 3 + 1))
        leave, move = order[:num_leave], order[num_leave:num_leave + num_move]
    move_zones = rng.integers(0, num_zones, move.size)
    if empty_zone and num_clients and not leave_all:
        # Every client of one occupied zone leaves or moves to the next zone.
        zone = int(population.zones[int(rng.integers(num_clients))])
        members = np.flatnonzero(population.zones == zone)
        half = members.size // 2
        keep = ~np.isin(move, members)
        leave = np.union1d(np.setdiff1d(leave, members), members[:half])
        move = np.concatenate([move[keep], members[half:]])
        move_zones = np.concatenate(
            [move_zones[keep], np.full(members.size - half, (zone + 1) % num_zones)]
        )
    num_joins = int(rng.integers(0, 25))
    return ChurnBatch(
        join_nodes=rng.integers(0, num_nodes, num_joins),
        join_zones=rng.integers(0, num_zones, num_joins),
        leave_indices=leave,
        move_indices=move,
        move_zones=move_zones,
    )


class TestCarriedTable:
    @pinned(60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(1, 4),
        leave_all=st.booleans(),
        empty_zone=st.booleans(),
        tied=st.booleans(),
    )
    def test_equals_fresh_build(self, world, seed, epochs, leave_all, empty_zone, tied):
        rng = np.random.default_rng(seed)
        scenario = world
        matrix = scenario.client_server_delays
        bound = _tied_bound(matrix, rng) if tied else float(rng.uniform(20.0, 400.0))
        if tied:
            assert (matrix.toarray() == bound).any()
        for epoch in range(epochs):
            matrix = scenario.client_server_delays
            table = matrix.over_bound_table(bound)
            np.testing.assert_array_equal(table, _fresh(matrix, bound))
            np.testing.assert_array_equal(table, _scatter_reference(matrix, bound))
            assert table.dtype == np.int32
            batch = _random_batch(
                scenario.population,
                scenario.num_zones,
                scenario.topology.num_nodes,
                rng,
                leave_all and epoch == epochs - 1,
                empty_zone,
            )
            scenario = scenario.apply_churn_delta(apply_churn(scenario.population, batch))
            carried = scenario.client_server_delays
            # Moved, not copied: the table now belongs to the new matrix only.
            assert matrix._cost_table is None
            assert np.shares_memory(carried._cost_table.counts, table)
        matrix = scenario.client_server_delays
        got = matrix.over_bound_table(bound)
        np.testing.assert_array_equal(got, _fresh(matrix, bound))
        np.testing.assert_array_equal(got, _scatter_reference(matrix, bound))
        if leave_all:
            assert matrix.num_clients == batch.join_nodes.size

    def test_everyone_leaves_and_nobody_joins(self, world):
        matrix = world.client_server_delays
        bound = world.delay_bound_ms
        matrix.over_bound_table(bound)
        batch = ChurnBatch(leave_indices=np.arange(world.num_clients))
        empty = world.apply_churn_delta(apply_churn(world.population, batch))
        got = empty.client_server_delays.over_bound_table(bound)
        np.testing.assert_array_equal(got, np.zeros_like(got))

    @pinned(20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_survivors_that_change_node(self, world, seed):
        # Churn keeps each survivor's node; a caller's map need not.
        rng = np.random.default_rng(seed)
        matrix = world.client_server_delays
        bound = _tied_bound(matrix, rng)
        matrix.over_bound_table(bound)
        nodes = matrix.client_nodes.copy()
        hop = rng.random(nodes.size) < 0.3
        nodes[hop] = rng.integers(0, world.topology.num_nodes, int(hop.sum()))
        old_to_new = np.arange(matrix.num_clients)
        moved = matrix.with_clients(nodes, matrix.client_zones, old_to_new, np.flatnonzero(hop))
        got = moved.over_bound_table(bound)
        np.testing.assert_array_equal(got, _scatter_reference(moved, bound))

    def test_permuted_map_across_row_chunks(self):
        # 2,500 clients with K = 64 span several update chunks; the map
        # shuffles every index and most clients change zone.
        instance = make_wide_sparse_instance()
        matrix = instance.client_server_delays
        assert len(list(row_chunks(matrix.num_clients, 64))) >= 3
        bound = instance.delay_bound
        matrix.over_bound_table(bound)
        rng = np.random.default_rng(2)
        old_to_new = rng.permutation(matrix.num_clients)
        nodes = np.empty_like(matrix.client_nodes)
        nodes[old_to_new] = matrix.client_nodes
        zones = rng.integers(0, matrix.num_zones, matrix.num_clients)
        changed = np.flatnonzero(zones[old_to_new] != matrix.client_zones)
        moved = matrix.with_clients(nodes, zones, old_to_new, changed)
        got = moved.over_bound_table(bound)
        np.testing.assert_array_equal(got, _scatter_reference(moved, bound))

    def test_changed_list_with_repeats_and_leavers(self, world):
        # Each changed client counts once, however often it is listed, and
        # a listed client that left counts as a leaver.
        rng = np.random.default_rng(7)
        matrix = world.client_server_delays
        bound = _tied_bound(matrix, rng)
        matrix.over_bound_table(bound)
        old_to_new = np.arange(matrix.num_clients)
        old_to_new[::5] = -1
        survivors = np.flatnonzero(old_to_new >= 0)
        old_to_new[survivors] = np.arange(survivors.size)
        zones = matrix.client_zones[survivors].copy()
        movers = survivors[::3]
        zones[::3] = (zones[::3] + 1) % matrix.num_zones
        changed = np.concatenate([movers, movers, np.arange(0, matrix.num_clients, 5)])
        moved = matrix.with_clients(matrix.client_nodes[survivors], zones, old_to_new, changed)
        got = moved.over_bound_table(bound)
        np.testing.assert_array_equal(got, _scatter_reference(moved, bound))

    def test_result_without_movers_counts_afresh(self, world):
        # A hand-built churn result need not list its movers; the delta then
        # starts the new matrix without a table instead of carrying a stale one.
        bound = world.delay_bound_ms
        world.client_server_delays.over_bound_table(bound)
        rng = np.random.default_rng(3)
        num_nodes = world.topology.num_nodes
        batch = _random_batch(world.population, world.num_zones, num_nodes, rng, False, False)
        assert batch.move_indices.size
        churn = dataclasses.replace(apply_churn(world.population, batch), movers_old=None)
        matrix = world.apply_churn_delta(churn).client_server_delays
        assert matrix._cost_table is None
        np.testing.assert_array_equal(
            matrix.over_bound_table(bound), _scatter_reference(matrix, bound)
        )

    def test_map_without_changers_counts_afresh(self, world):
        matrix = world.client_server_delays
        matrix.over_bound_table(world.delay_bound_ms)
        old_to_new = np.arange(matrix.num_clients)
        moved = matrix.with_clients(matrix.client_nodes, matrix.client_zones, old_to_new)
        assert moved._cost_table is None
        with pytest.raises(ValueError, match="changed must lie"):
            matrix.with_clients(matrix.client_nodes, matrix.client_zones, old_to_new, [-1])

    def test_unread_table_is_not_carried(self, world):
        matrix = world.client_server_delays
        matrix.over_bound_table(world.delay_bound_ms)
        rng = np.random.default_rng(0)
        num_nodes = world.topology.num_nodes
        batch = _random_batch(world.population, world.num_zones, num_nodes, rng, False, False)
        first = world.apply_churn_delta(apply_churn(world.population, batch))
        assert first.client_server_delays._cost_table is not None
        batch = _random_batch(first.population, world.num_zones, num_nodes, rng, False, False)
        second = first.apply_churn_delta(apply_churn(first.population, batch))
        assert second.client_server_delays._cost_table is None
        assert first.client_server_delays._cost_table is not None


class TestNoStaleTable:
    def test_capacity_only_delta_keeps_the_table(self, world):
        bound = world.delay_bound_ms
        table = world.client_server_delays.over_bound_table(bound)
        resized = world.with_server_capacities(world.servers.capacities * 0.5)
        assert resized.client_server_delays is world.client_server_delays
        assert np.shares_memory(resized.client_server_delays.over_bound_table(bound), table)

    @pinned(20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_new_fleet_counts_afresh(self, world, seed):
        rng = np.random.default_rng(seed)
        bound = float(rng.uniform(20.0, 400.0))
        world.client_server_delays.over_bound_table(bound)
        nodes = rng.choice(world.topology.num_nodes, world.num_servers, replace=False)
        moved = world.with_servers(ServerSet(nodes=nodes, capacities=world.servers.capacities))
        got = moved.client_server_delays.over_bound_table(bound)
        np.testing.assert_array_equal(got, _scatter_reference(moved.client_server_delays, bound))

    @pinned(20)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_delay_overlay_counts_afresh(self, world, seed):
        rng = np.random.default_rng(seed)
        matrix = world.client_server_delays
        bound = _tied_bound(matrix, rng)
        matrix.over_bound_table(bound)
        factors = np.where(rng.random(matrix.node_server.shape[0]) < 0.5, 3.0, 1.0)
        degraded = matrix.with_node_server(matrix.node_server * factors[:, None])
        got = degraded.over_bound_table(bound)
        np.testing.assert_array_equal(got, _scatter_reference(degraded, bound))

    @pinned(20)
    @given(first=st.floats(10.0, 400.0), second=st.floats(10.0, 400.0))
    def test_other_bound_counts_afresh(self, world, first, second):
        instance = CAPInstance.from_scenario(world)
        dense = instance.client_server_delays.toarray()
        for bound in (first, second, first):
            cost = initial_cost_matrix(dataclasses.replace(instance, delay_bound=bound))
            expected = np.zeros((instance.num_zones, instance.num_servers))
            np.add.at(expected, instance.client_zones, dense > bound)
            np.testing.assert_array_equal(cost.T, expected)
