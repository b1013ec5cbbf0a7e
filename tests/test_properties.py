"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.assignment import server_loads
from repro.core.costs import delays_to_targets, initial_cost_matrix, refined_cost_matrix
from repro.core.problem import CAPInstance
from repro.core.regret import max_regret_assign, regret_order
from repro.core.two_phase import solve_cap
from repro.dynamics.events import ChurnBatch, apply_churn
from repro.measurement.error import apply_multiplicative_error
from repro.metrics.cdf import delay_cdf
from repro.metrics.summary import aggregate
from repro.world.bandwidth import STREAM_BPS, client_target_demands
from repro.world.clients import ClientPopulation

from tests.reference.churn_snapshots import apply_churn_snapshots, assert_same_churn

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #


@st.composite
def cap_instances(draw):
    """Random feasible-looking CAP instances (small, ample capacity)."""
    num_servers = draw(st.integers(min_value=1, max_value=5))
    num_zones = draw(st.integers(min_value=1, max_value=6))
    num_clients = draw(st.integers(min_value=1, max_value=25))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    client_server_delays = rng.uniform(1.0, 500.0, size=(num_clients, num_servers))
    mesh = rng.uniform(1.0, 250.0, size=(num_servers, num_servers))
    mesh = (mesh + mesh.T) / 2.0
    np.fill_diagonal(mesh, 0.0)
    client_zones = rng.integers(0, num_zones, size=num_clients)
    client_demands = rng.uniform(1.0, 20.0, size=num_clients)
    server_capacities = np.full(num_servers, client_demands.sum() * 4.0 + 1.0)
    delay_bound = draw(st.floats(min_value=50.0, max_value=450.0))
    return CAPInstance(
        client_server_delays=client_server_delays,
        server_server_delays=mesh,
        client_zones=client_zones,
        client_demands=client_demands,
        server_capacities=server_capacities,
        delay_bound=delay_bound,
        num_zones=num_zones,
    )


# --------------------------------------------------------------------------- #
# Cost-matrix invariants
# --------------------------------------------------------------------------- #


class TestCostInvariants:
    @given(cap_instances())
    @settings(max_examples=30, deadline=None)
    def test_initial_cost_bounded_by_zone_population(self, instance):
        cost = initial_cost_matrix(instance)
        populations = instance.zone_populations()
        assert cost.shape == (instance.num_servers, instance.num_zones)
        assert (cost >= 0).all()
        assert (cost <= populations[None, :]).all()
        # Total misses over all servers and zones never exceeds clients × servers.
        assert cost.sum() <= instance.num_clients * instance.num_servers

    @given(cap_instances())
    @settings(max_examples=30, deadline=None)
    def test_refined_cost_non_negative_and_zero_within_bound(self, instance):
        rng = np.random.default_rng(0)
        zone_to_server = rng.integers(0, instance.num_servers, size=instance.num_zones)
        cost = refined_cost_matrix(instance, zone_to_server)
        assert (cost >= 0).all()
        delays = (
            instance.client_server_delays.toarray().T
            + instance.server_server_delays[:, zone_to_server[instance.client_zones]]
        )
        within = delays <= instance.delay_bound
        assert (cost[within] == 0).all()

    @given(cap_instances())
    @settings(max_examples=30, deadline=None)
    def test_delays_to_targets_direct_vs_forwarded(self, instance):
        rng = np.random.default_rng(1)
        zone_to_server = rng.integers(0, instance.num_servers, size=instance.num_zones)
        targets = zone_to_server[instance.client_zones]
        direct = delays_to_targets(instance, zone_to_server)
        via_target_contact = delays_to_targets(instance, zone_to_server, targets)
        np.testing.assert_allclose(direct, via_target_contact)


# --------------------------------------------------------------------------- #
# Greedy-assignment invariants
# --------------------------------------------------------------------------- #


class TestRegretInvariants:
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(
                st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=12)
            ),
            elements=st.floats(min_value=-100, max_value=0, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_regret_order_is_a_permutation(self, desirability):
        order = regret_order(desirability)
        assert sorted(order.tolist()) == list(range(desirability.shape[1]))

    @given(cap_instances())
    @settings(max_examples=25, deadline=None)
    def test_max_regret_respects_capacities_with_skip(self, instance):
        desirability = -initial_cost_matrix(instance)
        result = max_regret_assign(
            desirability,
            demands=instance.zone_demands(),
            capacities=instance.server_capacities,
            fallback="skip",
        )
        loads = np.zeros(instance.num_servers)
        for item, server in enumerate(result.item_to_server):
            if server >= 0:
                loads[server] += instance.zone_demands()[item]
        assert (loads <= instance.server_capacities + 1e-6).all()
        np.testing.assert_allclose(loads, result.loads)


class TestSolverInvariants:
    @given(cap_instances(), st.sampled_from(["ranz-virc", "ranz-grec", "grez-virc", "grez-grec"]))
    @settings(max_examples=25, deadline=None)
    def test_two_phase_solutions_are_structurally_valid(self, instance, algorithm):
        assignment = solve_cap(instance, algorithm, seed=0)
        assert assignment.zone_to_server.shape == (instance.num_zones,)
        assert assignment.contact_of_client.shape == (instance.num_clients,)
        assert (assignment.zone_to_server >= 0).all()
        assert (assignment.zone_to_server < instance.num_servers).all()
        assert (assignment.contact_of_client >= 0).all()
        assert (assignment.contact_of_client < instance.num_servers).all()
        assert 0.0 <= assignment.pqos(instance) <= 1.0
        # With the 4× capacity headroom of the strategy, capacity holds.
        assert assignment.is_capacity_feasible(instance)

    @given(cap_instances())
    @settings(max_examples=25, deadline=None)
    def test_grec_never_hurts_pqos(self, instance):
        virc = solve_cap(instance, "grez-virc", seed=0)
        grec = solve_cap(instance, "grez-grec", seed=0)
        assert grec.pqos(instance) >= virc.pqos(instance) - 1e-12

    @given(cap_instances())
    @settings(max_examples=25, deadline=None)
    def test_server_loads_conserve_demand(self, instance):
        assignment = solve_cap(instance, "grez-grec", seed=0)
        loads = server_loads(
            instance, assignment.zone_to_server, assignment.contact_of_client
        )
        forwarded = assignment.forwarded_mask(instance)
        expected_total = instance.total_demand() + 2.0 * instance.client_demands[forwarded].sum()
        assert loads.sum() == pytest.approx(expected_total)


# --------------------------------------------------------------------------- #
# Substrate invariants
# --------------------------------------------------------------------------- #


class TestSubstrateInvariants:
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_demands_positive_and_consistent(self, num_clients, num_zones, seed):
        rng = np.random.default_rng(seed)
        zones = rng.integers(0, num_zones, size=num_clients)
        per_client = client_target_demands(zones, num_zones)
        populations = np.bincount(zones, minlength=num_zones)
        per_zone = np.bincount(zones, weights=per_client, minlength=num_zones)
        assert (per_client > 0).all()
        np.testing.assert_allclose(per_zone, STREAM_BPS * populations * (populations + 1.0))

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=1, max_value=60),
            elements=st.floats(min_value=0, max_value=1000, allow_nan=False),
        ),
        st.floats(min_value=1.0, max_value=3.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_multiplicative_error_bounds(self, delays, factor, seed):
        noisy = apply_multiplicative_error(delays, factor, seed=seed)
        assert noisy.shape == delays.shape
        assert (noisy >= delays / factor - 1e-9).all()
        assert (noisy <= delays * factor + 1e-9).all()

    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.integers(min_value=0, max_value=80),
            elements=st.floats(min_value=0, max_value=600, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_delay_cdf_monotone_and_bounded(self, delays):
        cdf = delay_cdf(delays, grid=np.linspace(0.0, 600.0, 13))
        assert (np.diff(cdf.values) >= -1e-12).all()
        assert (cdf.values >= 0).all() and (cdf.values <= 1).all()
        if delays.size:
            assert cdf.values[-1] == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50)
    )
    @settings(max_examples=40, deadline=None)
    def test_aggregate_matches_numpy(self, values):
        agg = aggregate(values)
        assert agg.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        if len(values) > 1:
            assert agg.std == pytest.approx(np.std(values, ddof=1), rel=1e-6, abs=1e-6)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_churn_preserves_client_accounting(self, num_clients, num_joins, seed):
        rng = np.random.default_rng(seed)
        population = ClientPopulation(
            nodes=rng.integers(0, 100, size=num_clients),
            zones=rng.integers(0, 5, size=num_clients),
        )
        num_leaves = int(rng.integers(0, num_clients + 1))
        leavers = rng.choice(num_clients, size=num_leaves, replace=False)
        stayers = np.setdiff1d(np.arange(num_clients), leavers)
        num_moves = int(rng.integers(0, stayers.size + 1)) if stayers.size else 0
        if num_moves:
            movers = rng.choice(stayers, size=num_moves, replace=False)
        else:
            movers = np.array([], dtype=int)
        batch = ChurnBatch(
            join_nodes=rng.integers(0, 100, size=num_joins),
            join_zones=rng.integers(0, 5, size=num_joins),
            leave_indices=leavers,
            move_indices=movers,
            move_zones=rng.integers(0, 5, size=movers.size),
        )
        result = apply_churn(population, batch)
        assert_same_churn(result, apply_churn_snapshots(population, batch))
        assert result.population.num_clients == num_clients - num_leaves + num_joins
        # old_to_new maps exactly the survivors, injectively.
        survivors = result.old_to_new[result.old_to_new >= 0]
        assert survivors.size == num_clients - num_leaves
        assert np.unique(survivors).size == survivors.size
        assert result.new_client_indices.size == num_joins
