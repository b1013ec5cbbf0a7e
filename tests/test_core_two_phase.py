"""Tests for repro.core.two_phase — the four two-phase CAP algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.two_phase import (
    PAPER_ALGORITHMS,
    STANDARD_ALGORITHMS,
    TwoPhaseAlgorithm,
    solve_cap,
)
from repro.core.validation import validate_assignment


class TestRegistryContents:
    def test_paper_has_exactly_four(self):
        assert set(PAPER_ALGORITHMS) == {"ranz-virc", "ranz-grec", "grez-virc", "grez-grec"}

    def test_standard_superset_of_paper(self):
        assert set(PAPER_ALGORITHMS) <= set(STANDARD_ALGORITHMS)


class TestSolveCap:
    @pytest.mark.parametrize("algorithm", sorted(PAPER_ALGORITHMS))
    def test_produces_valid_assignment(self, small_instance, algorithm):
        assignment = solve_cap(small_instance, algorithm, seed=0)
        assert assignment.algorithm == algorithm
        assert assignment.contact_of_client.shape == (small_instance.num_clients,)
        assert assignment.zone_to_server.shape == (small_instance.num_zones,)
        report = validate_assignment(small_instance, assignment)
        assert report.ok, str(report.violations)

    def test_case_insensitive_name(self, tiny_instance):
        assignment = solve_cap(tiny_instance, "GreZ-GreC", seed=0)
        assert assignment.algorithm == "grez-grec"

    def test_unknown_algorithm(self, tiny_instance):
        with pytest.raises(KeyError):
            solve_cap(tiny_instance, "does-not-exist")

    def test_default_is_grez_grec(self, tiny_instance):
        assert solve_cap(tiny_instance, seed=0).algorithm == "grez-grec"

    def test_seed_only_affects_ranz(self, small_instance):
        a = solve_cap(small_instance, "grez-grec", seed=1)
        b = solve_cap(small_instance, "grez-grec", seed=2)
        np.testing.assert_array_equal(a.zone_to_server, b.zone_to_server)
        c = solve_cap(small_instance, "ranz-virc", seed=1)
        d = solve_cap(small_instance, "ranz-virc", seed=2)
        assert not np.array_equal(c.zone_to_server, d.zone_to_server)


class TestPaperOrdering:
    def test_grez_beats_ranz_on_tiny_instance(self, tiny_instance):
        grez = solve_cap(tiny_instance, "grez-grec", seed=0)
        ranz_pqos = np.mean(
            [solve_cap(tiny_instance, "ranz-virc", seed=s).pqos(tiny_instance) for s in range(8)]
        )
        assert grez.pqos(tiny_instance) >= ranz_pqos

    def test_grec_refinement_never_hurts(self, small_instance):
        virc = solve_cap(small_instance, "grez-virc", seed=0)
        grec = solve_cap(small_instance, "grez-grec", seed=0)
        assert grec.pqos(small_instance) >= virc.pqos(small_instance) - 1e-12

    def test_virc_has_lowest_utilization(self, small_instance):
        virc = solve_cap(small_instance, "grez-virc", seed=0)
        grec = solve_cap(small_instance, "grez-grec", seed=0)
        assert virc.resource_utilization(small_instance) <= grec.resource_utilization(
            small_instance
        ) + 1e-12


class TestTwoPhaseAlgorithmObject:
    def test_solve_composes_phases(self, tiny_instance):
        algo = PAPER_ALGORITHMS["grez-grec"]
        assert isinstance(algo, TwoPhaseAlgorithm)
        assignment = algo.solve(tiny_instance, seed=0)
        assert assignment.algorithm == "grez-grec"
        assert assignment.pqos(tiny_instance) == pytest.approx(1.0)

    def test_description_present(self):
        for algo in PAPER_ALGORITHMS.values():
            assert algo.description
