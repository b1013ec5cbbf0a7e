"""Tests for the four phase heuristics: RanZ, GreZ (IAP) and VirC, GreC (RAP)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.assignment import ZoneAssignment, zone_server_loads
from repro.core.costs import initial_cost_matrix, refined_cost_rows
from repro.core.grec import assign_contacts_greedy
from repro.core.grez import assign_zones_greedy
from repro.core.problem import CAPInstance
from repro.core.ranz import assign_zones_random
from repro.core.virc import assign_contacts_virtual
from tests.conftest import make_tiny_instance
from tests.reference.regret_loop import max_regret_assign_loop


class TestRanZ:
    def test_all_zones_assigned_within_capacity(self, small_instance):
        result = assign_zones_random(small_instance, seed=0)
        assert result.num_zones == small_instance.num_zones
        assert (result.zone_to_server >= 0).all()
        assert (result.zone_to_server < small_instance.num_servers).all()
        loads = result.server_zone_loads(small_instance)
        assert (loads <= small_instance.server_capacities * (1 + 1e-6)).all()
        assert not result.capacity_exceeded

    def test_deterministic_for_seed(self, small_instance):
        a = assign_zones_random(small_instance, seed=5)
        b = assign_zones_random(small_instance, seed=5)
        np.testing.assert_array_equal(a.zone_to_server, b.zone_to_server)

    def test_different_seeds_generally_differ(self, small_instance):
        a = assign_zones_random(small_instance, seed=1)
        b = assign_zones_random(small_instance, seed=2)
        assert not np.array_equal(a.zone_to_server, b.zone_to_server)

    def test_algorithm_name_and_runtime(self, tiny_instance):
        result = assign_zones_random(tiny_instance, seed=0)
        assert result.algorithm == "ranz"
        assert result.runtime_seconds >= 0.0

    def test_overload_flagged_when_capacity_insufficient(self, overloaded_instance):
        result = assign_zones_random(overloaded_instance, seed=0)
        assert result.capacity_exceeded
        assert (result.zone_to_server >= 0).all()

    def test_ignores_delays(self, tiny_instance):
        # RanZ is delay-oblivious: doubling all delays cannot change the result
        # for the same seed because delays never enter its decisions.
        doubled = tiny_instance.with_delays(
            client_server_delays=2 * tiny_instance.client_server_delays.toarray()
        )
        a = assign_zones_random(tiny_instance, seed=3)
        b = assign_zones_random(doubled, seed=3)
        np.testing.assert_array_equal(a.zone_to_server, b.zone_to_server)

    def test_rng_draw_order_matches_reference_scan(self, small_instance):
        # The incremental feasibility-mask maintenance must leave the feasible
        # sets — and hence the RNG draw sequence — bit-identical to the
        # original per-zone scan.
        from repro.utils.rng import as_generator

        def reference(instance, seed):
            rng = as_generator(seed)
            zone_demands = instance.zone_demands()
            populations = instance.zone_populations()
            capacities = instance.server_capacities
            loads = np.zeros(instance.num_servers)
            zone_to_server = np.full(instance.num_zones, -1, dtype=np.int64)
            for zone in np.argsort(-populations, kind="stable"):
                demand = zone_demands[zone]
                feasible = np.flatnonzero(loads + demand <= capacities + 1e-9)
                if feasible.size:
                    server = int(rng.choice(feasible))
                else:
                    server = int(np.argmax(capacities - loads))
                zone_to_server[zone] = server
                loads[server] += demand
            return zone_to_server

        for seed in range(10):
            np.testing.assert_array_equal(
                assign_zones_random(small_instance, seed=seed).zone_to_server,
                reference(small_instance, seed),
            )


class TestGreZ:
    def test_tiny_instance_gets_obvious_assignment(self, tiny_instance):
        result = assign_zones_greedy(tiny_instance)
        # Zones 0-2 must go to their dedicated server; zone 3's best is server 1.
        np.testing.assert_array_equal(result.zone_to_server[:3], [0, 1, 2])
        assert result.zone_to_server[3] == 1
        assert result.algorithm == "grez"
        assert not result.capacity_exceeded

    def test_capacity_respected(self, tight_instance):
        result = assign_zones_greedy(tight_instance)
        loads = result.server_zone_loads(tight_instance)
        assert (loads <= tight_instance.server_capacities * (1 + 1e-6)).all()
        assert not result.capacity_exceeded

    def test_overloaded_instance_flags(self, overloaded_instance):
        result = assign_zones_greedy(overloaded_instance)
        assert result.capacity_exceeded

    def test_never_worse_than_random_on_average(self, small_instance):
        greedy_cost = _zone_assignment_cost(small_instance, assign_zones_greedy(small_instance))
        random_costs = [
            _zone_assignment_cost(small_instance, assign_zones_random(small_instance, seed=s))
            for s in range(5)
        ]
        assert greedy_cost <= np.mean(random_costs)

    def test_dynamic_variant_name(self, tiny_instance):
        result = assign_zones_greedy(tiny_instance, recompute_regret=True)
        assert result.algorithm == "grez-dynamic"
        np.testing.assert_array_equal(result.zone_to_server[:3], [0, 1, 2])

    def test_deterministic(self, small_instance):
        a = assign_zones_greedy(small_instance)
        b = assign_zones_greedy(small_instance)
        np.testing.assert_array_equal(a.zone_to_server, b.zone_to_server)


def _zone_assignment_cost(instance: CAPInstance, zones: ZoneAssignment) -> float:
    """Total IAP cost C^I(x) of a zone assignment (number of QoS misses)."""
    cost = initial_cost_matrix(instance)
    return float(cost[zones.zone_to_server, np.arange(instance.num_zones)].sum())


class TestVirC:
    def test_contact_equals_target(self, tiny_instance):
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]), algorithm="grez")
        assignment = assign_contacts_virtual(tiny_instance, zones)
        np.testing.assert_array_equal(
            assignment.contact_of_client, zones.targets_of_clients(tiny_instance)
        )
        assert assignment.algorithm == "grez-virc"
        assert not assignment.forwarded_mask(tiny_instance).any()

    def test_no_forwarding_overhead(self, tiny_instance):
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]))
        assignment = assign_contacts_virtual(tiny_instance, zones)
        np.testing.assert_allclose(
            assignment.server_loads(tiny_instance), zones.server_zone_loads(tiny_instance)
        )

    def test_zone_count_mismatch_rejected(self, tiny_instance):
        zones = ZoneAssignment(zone_to_server=np.array([0, 1]))
        with pytest.raises(ValueError):
            assign_contacts_virtual(tiny_instance, zones)

    def test_propagates_capacity_flag(self, tiny_instance):
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]), capacity_exceeded=True)
        assert assign_contacts_virtual(tiny_instance, zones).capacity_exceeded


class TestGreC:
    def test_forwards_clients_over_the_mesh(self, tiny_instance):
        # Host zone 3 on server 0 so clients 6, 7 miss the bound directly
        # (120 > 100) but can make it through server 1 (60 + 30 = 90).
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]), algorithm="grez")
        assignment = assign_contacts_greedy(tiny_instance, zones)
        assert assignment.algorithm == "grez-grec"
        assert assignment.contact_of_client[6] == 1
        assert assignment.contact_of_client[7] == 1
        assert assignment.pqos(tiny_instance) == pytest.approx(1.0)

    def test_satisfied_clients_keep_their_target(self, tiny_instance):
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]))
        assignment = assign_contacts_greedy(tiny_instance, zones)
        targets = zones.targets_of_clients(tiny_instance)
        np.testing.assert_array_equal(assignment.contact_of_client[:6], targets[:6])

    def test_respects_residual_capacity(self):
        # Give server 1 no headroom for forwarding: capacity exactly its zone load.
        instance = make_tiny_instance(capacities=(1000.0, 20.0, 1000.0))
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]))
        assignment = assign_contacts_greedy(instance, zones)
        # Server 1 cannot take the extra 2×10 per client, so clients 6, 7 cannot
        # be forwarded through it.
        assert (assignment.contact_of_client[6] != 1) or assignment.is_capacity_feasible(
            instance
        )
        assert assignment.is_capacity_feasible(instance)

    def test_falls_back_to_target_when_nothing_fits(self):
        instance = make_tiny_instance(capacities=(1000.0, 20.0, 20.0))
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]))
        assignment = assign_contacts_greedy(instance, zones)
        # No server has room: the two needy clients stay on their target server.
        np.testing.assert_array_equal(assignment.contact_of_client[6:], [0, 0])

    def test_never_reduces_pqos_vs_virc(self, small_instance):
        zones = assign_zones_greedy(small_instance)
        virc = assign_contacts_virtual(small_instance, zones)
        grec = assign_contacts_greedy(small_instance, zones)
        assert grec.pqos(small_instance) >= virc.pqos(small_instance) - 1e-12

    def test_zone_count_mismatch_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            assign_contacts_greedy(tiny_instance, ZoneAssignment(zone_to_server=np.array([0])))

    def test_dynamic_variant_name(self, tiny_instance):
        zones = ZoneAssignment(zone_to_server=np.array([0, 1, 2, 0]), algorithm="grez")
        result = assign_contacts_greedy(tiny_instance, zones, recompute_regret=True)
        assert result.algorithm == "grez-grec-dynamic"


class TestLoopOracleEquivalence:
    """Every GreZ / GreC placement equals the per-item loop oracle's.

    The ``regret_oracle_spy`` fixture runs the oracle beside each engine call
    the solve makes and compares placements, loads and overflow flags.  The
    small-world tests also run the oracle once on the paper's full cost
    matrices and compare the solvers' results with it, whichever engine
    entry point placed them.
    """

    @pytest.mark.parametrize("recompute", [False, True])
    def test_grez_matches_oracle(self, small_instance, regret_oracle_spy, recompute):
        result = assign_zones_greedy(small_instance, recompute_regret=recompute)
        assert len(regret_oracle_spy) == 1
        expected = max_regret_assign_loop(
            desirability=-initial_cost_matrix(small_instance),
            demands=small_instance.zone_demands(),
            capacities=small_instance.server_capacities,
            recompute=recompute,
        )
        np.testing.assert_array_equal(result.zone_to_server, expected.item_to_server)
        assert result.capacity_exceeded == expected.capacity_exceeded

    @pytest.mark.parametrize("recompute", [False, True])
    def test_grec_matches_oracle(self, small_instance, regret_oracle_spy, recompute):
        zones = assign_zones_greedy(small_instance)
        result = assign_contacts_greedy(small_instance, zones, recompute_regret=recompute)
        assert len(regret_oracle_spy) == 2
        # GreC from the paper: the clients over the bound (L_E) are placed
        # on their refined costs; the unplaced keep their target server.
        targets = zones.targets_of_clients(small_instance)
        helped = np.flatnonzero(small_instance.delays_to(targets) > small_instance.delay_bound)
        expected = max_regret_assign_loop(
            desirability=-refined_cost_rows(small_instance, zones.zone_to_server, helped).T,
            demands=2.0 * small_instance.client_demands[helped],
            capacities=small_instance.server_capacities,
            initial_loads=zone_server_loads(small_instance, zones.zone_to_server),
            fallback="skip",
            recompute=recompute,
        )
        contacts = targets.copy()
        placed = expected.item_to_server >= 0
        contacts[helped[placed]] = expected.item_to_server[placed]
        assert helped.size
        np.testing.assert_array_equal(result.contact_of_client, contacts)

    def test_sparse_candidate_paths_match_oracle(self, regret_oracle_spy):
        # GreZ's placement from the sparse cost table and GreC's from the
        # needy clients' candidate costs, both through the candidate-list
        # entry point, under a bound tight enough that clients need
        # forwarding.
        from repro.core.registry import solve as registry_solve
        from repro.core.problem import CAPInstance
        from repro.world.scenario import build_scenario
        from tests.conftest import make_small_config

        config = make_small_config(
            num_servers=12, num_zones=20, num_clients=400, delay_backend="sparse",
            sparse_top_k=4,
        )
        instance = CAPInstance.from_scenario(build_scenario(config, seed=3))
        registry_solve(dataclasses.replace(instance, delay_bound=60.0), "grez-grec", seed=0)
        assert regret_oracle_spy == ["max_regret_assign_candidates", "max_regret_assign_candidates"]

    @pytest.mark.slow
    @pytest.mark.parametrize("algorithm", ["grez-grec", "grez-grec-dynamic", "ranz-grec"])
    def test_paper_scale_scenario_matches_oracle(self, regret_oracle_spy, algorithm):
        # The paper's default configuration (20s-80z-1000c-500cp) exercises
        # thousands of placements with real capacity contention.
        from repro.core.registry import solve as registry_solve
        from repro.core.problem import CAPInstance
        from repro.experiments.config import config_from_label
        from repro.world.scenario import build_scenario

        config = config_from_label("20s-80z-1000c-500cp", correlation=0.0)
        scenario = build_scenario(config, seed=11)
        instance = CAPInstance.from_scenario(scenario)
        registry_solve(instance, algorithm, seed=5)
        assert len(regret_oracle_spy) == (1 if algorithm == "ranz-grec" else 2)
