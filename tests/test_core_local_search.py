"""Tests for repro.core.local_search — hill-climbing refinement of assignments."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.local_search import LocalSearchResult, refine_assignment
from repro.core.two_phase import solve_cap
from repro.core.validation import validate_assignment
from tests.reference.local_search_loop import refine_loop


def _bad_assignment(instance) -> Assignment:
    """A deliberately poor but feasible assignment: everything on server 2."""
    zone_to_server = np.full(instance.num_zones, 2, dtype=np.int64)
    contacts = np.full(instance.num_clients, 2, dtype=np.int64)
    return Assignment(zone_to_server=zone_to_server, contact_of_client=contacts, algorithm="bad")


class TestRefineAssignment:
    def test_improves_bad_starting_point(self, tiny_instance):
        start = _bad_assignment(tiny_instance)
        result = refine_assignment(tiny_instance, start)
        assert isinstance(result, LocalSearchResult)
        assert result.final_pqos > result.initial_pqos
        assert result.iterations > 0
        assert result.assignment.pqos(tiny_instance) == pytest.approx(result.final_pqos)
        assert validate_assignment(tiny_instance, result.assignment).ok

    def test_never_worsens(self, small_instance):
        start = solve_cap(small_instance, "grez-grec", seed=0)
        result = refine_assignment(small_instance, start, max_iterations=20)
        assert result.final_pqos >= result.initial_pqos - 1e-12
        assert validate_assignment(small_instance, result.assignment).ok

    def test_respects_capacities_throughout(self, tight_instance):
        start = solve_cap(tight_instance, "ranz-virc", seed=1)
        result = refine_assignment(tight_instance, start)
        assert result.assignment.is_capacity_feasible(tight_instance)

    def test_iteration_budget_honoured(self, tiny_instance):
        start = _bad_assignment(tiny_instance)
        result = refine_assignment(tiny_instance, start, max_iterations=1)
        assert result.iterations <= 1

    def test_neighbourhood_restriction(self, tiny_instance):
        start = _bad_assignment(tiny_instance)
        zone_only = refine_assignment(
            tiny_instance, start, consider_contact_moves=False
        )
        contact_only = refine_assignment(
            tiny_instance, start, consider_zone_moves=False
        )
        both = refine_assignment(tiny_instance, start)
        assert both.final_pqos >= max(zone_only.final_pqos, contact_only.final_pqos) - 1e-12
        # Zone moves alone can already fix the bad placement of zones 0-2.
        assert zone_only.final_pqos > start.pqos(tiny_instance)

    def test_algorithm_name_and_metadata(self, tiny_instance):
        start = _bad_assignment(tiny_instance)
        result = refine_assignment(tiny_instance, start)
        assert result.assignment.algorithm == "bad+ls"
        assert result.assignment.metadata["local_search_iterations"] == result.iterations

    def test_fixed_point_on_already_optimal_tiny_instance(self, tiny_instance):
        start = solve_cap(tiny_instance, "grez-grec", seed=0)
        assert start.pqos(tiny_instance) == pytest.approx(1.0)
        result = refine_assignment(tiny_instance, start)
        assert result.iterations == 0
        np.testing.assert_array_equal(
            result.assignment.contact_of_client, start.contact_of_client
        )


def _assert_matches_oracle(instance, start, **kwargs):
    zone_to_server, contacts, iterations = refine_loop(instance, start, **kwargs)
    vector = refine_assignment(instance, start, **kwargs)
    assert vector.iterations == iterations
    np.testing.assert_array_equal(vector.assignment.zone_to_server, zone_to_server)
    np.testing.assert_array_equal(vector.assignment.contact_of_client, contacts)
    return vector


class TestLoopOracleEquivalence:
    """The search replays the nested-scan oracle's move decisions."""

    def test_bad_start_tiny_instance(self, tiny_instance):
        _assert_matches_oracle(tiny_instance, _bad_assignment(tiny_instance))

    def test_tight_capacities(self, tight_instance):
        _assert_matches_oracle(tight_instance, _bad_assignment(tight_instance))

    def test_overloaded_instance(self, overloaded_instance):
        _assert_matches_oracle(overloaded_instance, _bad_assignment(overloaded_instance))

    @pytest.mark.parametrize("kwargs", [
        {"consider_contact_moves": False},
        {"consider_zone_moves": False},
        {"max_iterations": 1},
        {"max_iterations": 3},
    ])
    def test_restricted_neighbourhoods(self, tiny_instance, kwargs):
        _assert_matches_oracle(tiny_instance, _bad_assignment(tiny_instance), **kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ["ranz-virc", "grez-grec"])
    def test_generated_scenarios(self, seed, algorithm):
        from repro.core.problem import CAPInstance
        from repro.world.scenario import build_scenario
        from tests.conftest import make_small_config

        config = make_small_config(num_clients=100, num_zones=8)
        instance = CAPInstance.from_scenario(build_scenario(config, seed=seed))
        start = solve_cap(instance, algorithm, seed=seed)
        _assert_matches_oracle(instance, start, max_iterations=30)


class TestWarmStartRefine:
    """The warm-start (incremental-accumulator) search replays
    ``refine_assignment``'s move decisions while maintaining delays/loads
    across moves."""

    def _assert_matches_vectorized(self, instance, start, **kwargs):
        from repro.core.local_search import warm_start_refine

        vector = refine_assignment(instance, start, **kwargs)
        warm = warm_start_refine(
            instance,
            start,
            consider_zone_moves=kwargs.get("consider_zone_moves", True),
            consider_contact_moves=kwargs.get("consider_contact_moves", True),
            max_iterations=kwargs.get("max_iterations", 200),
        )
        assert warm.iterations == vector.iterations
        np.testing.assert_array_equal(
            warm.assignment.zone_to_server, vector.assignment.zone_to_server
        )
        np.testing.assert_array_equal(
            warm.assignment.contact_of_client, vector.assignment.contact_of_client
        )
        return warm

    def test_bad_start_full_neighbourhood(self, tiny_instance):
        warm = self._assert_matches_vectorized(tiny_instance, _bad_assignment(tiny_instance))
        assert warm.final_pqos > warm.initial_pqos

    def test_contact_moves_only(self, tiny_instance):
        self._assert_matches_vectorized(
            tiny_instance, _bad_assignment(tiny_instance), consider_zone_moves=False
        )

    def test_tight_capacities(self, tight_instance):
        self._assert_matches_vectorized(tight_instance, _bad_assignment(tight_instance))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_scenarios(self, seed):
        from repro.core.problem import CAPInstance
        from repro.world.scenario import build_scenario
        from tests.conftest import make_small_config

        config = make_small_config(num_clients=100, num_zones=8)
        instance = CAPInstance.from_scenario(build_scenario(config, seed=seed))
        start = solve_cap(instance, "ranz-virc", seed=seed)
        self._assert_matches_vectorized(instance, start, max_iterations=30)

    def test_never_worsens_and_records_metadata(self, tiny_instance):
        from repro.core.local_search import warm_start_refine

        start = _bad_assignment(tiny_instance)
        result = warm_start_refine(tiny_instance, start)
        assert result.final_pqos >= result.initial_pqos
        assert result.assignment.algorithm.endswith("+ws")
        assert result.assignment.metadata["warm_start_iterations"] == result.iterations

    def test_capacity_flag_recomputed(self, tiny_instance):
        """A stale capacity_exceeded flag is cleared when loads actually fit."""
        from repro.core.local_search import warm_start_refine

        start = Assignment(
            zone_to_server=_bad_assignment(tiny_instance).zone_to_server,
            contact_of_client=_bad_assignment(tiny_instance).contact_of_client,
            algorithm="bad",
            capacity_exceeded=True,  # stale: server 2 easily fits everything
        )
        result = warm_start_refine(tiny_instance, start)
        assert not result.assignment.capacity_exceeded
