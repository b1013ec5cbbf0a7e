"""Tests for repro.baselines — related-work comparison baselines."""

from __future__ import annotations

import numpy as np

from repro.baselines.load_balance import assign_zones_load_balanced, solve_load_balance
from repro.baselines.nearest_server import solve_nearest_server
from repro.core.two_phase import solve_cap
from repro.core.validation import validate_assignment


class TestLoadBalance:
    def test_valid_assignment(self, small_instance):
        assignment = solve_load_balance(small_instance)
        assert assignment.algorithm == "load-balance"
        assert validate_assignment(small_instance, assignment).ok

    def test_no_forwarding(self, small_instance):
        assignment = solve_load_balance(small_instance)
        assert not assignment.forwarded_mask(small_instance).any()

    def test_balances_relative_load(self, small_instance):
        zones = assign_zones_load_balanced(small_instance)
        loads = zones.server_zone_loads(small_instance)
        utilisation = loads / small_instance.server_capacities
        # Delay-oblivious LPT keeps per-server utilisation within a modest band.
        assert utilisation.max() - utilisation.min() < 0.8

    def test_delay_oblivious(self, tiny_instance):
        doubled = tiny_instance.with_delays(
            client_server_delays=2 * tiny_instance.client_server_delays.toarray()
        )
        a = assign_zones_load_balanced(tiny_instance)
        b = assign_zones_load_balanced(doubled)
        np.testing.assert_array_equal(a.zone_to_server, b.zone_to_server)

    def test_usually_worse_than_grez_on_interactivity(self, small_instance):
        balanced = solve_load_balance(small_instance)
        greedy = solve_cap(small_instance, "grez-grec", seed=0)
        assert greedy.pqos(small_instance) >= balanced.pqos(small_instance)


class TestNearestServer:
    def test_valid_assignment(self, small_instance):
        assignment = solve_nearest_server(small_instance)
        assert assignment.algorithm == "nearest-server"
        assert validate_assignment(small_instance, assignment).ok

    def test_tiny_instance_gets_dedicated_servers(self, tiny_instance):
        assignment = solve_nearest_server(tiny_instance)
        np.testing.assert_array_equal(assignment.zone_to_server[:3], [0, 1, 2])
        assert assignment.pqos(tiny_instance) >= 6 / 8

    def test_contacts_within_capacity(self, small_instance):
        assignment = solve_nearest_server(small_instance)
        assert assignment.is_capacity_feasible(small_instance)

    def test_delay_aware_beats_load_balance(self, small_instance):
        nearest = solve_nearest_server(small_instance)
        balanced = solve_load_balance(small_instance)
        assert nearest.pqos(small_instance) >= balanced.pqos(small_instance)
