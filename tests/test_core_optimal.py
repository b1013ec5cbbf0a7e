"""Tests for repro.core.optimal — the exact MILP baseline (lp_solve's role)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.costs import initial_cost_matrix
from repro.core.grez import assign_zones_greedy
from repro.core.optimal import (
    OptimalityError,
    OptimalOptions,
    solve_cap_optimal,
    solve_iap_optimal,
    solve_rap_optimal,
)
from repro.core.two_phase import solve_cap
from repro.core.validation import validate_assignment
from tests.conftest import make_tiny_instance


class TestOptimalOptions:
    def test_as_milp_options(self):
        opts = OptimalOptions(time_limit=30.0)
        assert opts.as_milp_options() == {"time_limit": 30.0, "mip_rel_gap": 0.0}


class TestSolveIapOptimal:
    def test_tiny_instance_optimal_zone_map(self, tiny_instance):
        zones = solve_iap_optimal(tiny_instance)
        # The unique zero-cost choice for zones 0-2; zone 3 must go to server 1.
        np.testing.assert_array_equal(zones.zone_to_server, [0, 1, 2, 1])
        assert zones.algorithm.startswith("optimal")
        assert not zones.capacity_exceeded

    def test_objective_not_worse_than_greedy(self, small_instance):
        cost = initial_cost_matrix(small_instance)

        def total_cost(zone_to_server):
            return cost[zone_to_server, np.arange(small_instance.num_zones)].sum()

        optimal = solve_iap_optimal(small_instance)
        greedy = assign_zones_greedy(small_instance)
        assert total_cost(optimal.zone_to_server) <= total_cost(greedy.zone_to_server) + 1e-9

    def test_respects_capacities(self, tight_instance):
        zones = solve_iap_optimal(tight_instance)
        loads = zones.server_zone_loads(tight_instance)
        assert (loads <= tight_instance.server_capacities * (1 + 1e-6)).all()

    def test_infeasible_raises(self, overloaded_instance):
        with pytest.raises(OptimalityError):
            solve_iap_optimal(overloaded_instance)


class TestSolveRapOptimal:
    def test_improves_on_direct_connection(self, tiny_instance):
        zones = solve_iap_optimal(tiny_instance)
        # Force zone 3 onto server 0 to create clients needing the mesh.
        forced = zones.zone_to_server.copy()
        forced[3] = 0
        from repro.core.assignment import ZoneAssignment

        assignment = solve_rap_optimal(tiny_instance, ZoneAssignment(zone_to_server=forced))
        assert assignment.pqos(tiny_instance) == pytest.approx(1.0)
        assert validate_assignment(tiny_instance, assignment).ok


class TestSolveCapOptimal:
    def test_tiny_instance_full_qos(self, tiny_instance):
        assignment = solve_cap_optimal(tiny_instance)
        assert assignment.pqos(tiny_instance) == pytest.approx(1.0)
        assert assignment.algorithm == "optimal"
        assert validate_assignment(tiny_instance, assignment).ok

    def test_not_worse_than_best_heuristic(self, small_instance):
        optimal = solve_cap_optimal(small_instance)
        heuristic = solve_cap(small_instance, "grez-grec", seed=0)
        assert optimal.pqos(small_instance) >= heuristic.pqos(small_instance) - 1e-9

    def test_runtime_recorded(self, tiny_instance):
        assert solve_cap_optimal(tiny_instance).runtime_seconds > 0.0

    def test_infeasible_capacity_raises(self):
        with pytest.raises(OptimalityError):
            solve_cap_optimal(make_tiny_instance(capacities=(25.0, 25.0, 25.0)))
