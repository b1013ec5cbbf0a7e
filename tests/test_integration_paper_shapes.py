"""Integration tests asserting the *shape* of the paper's headline results.

These run the full pipeline (topology → scenario → algorithms → metrics) on a
moderately sized configuration and check the qualitative relations reported in
the paper's Section 4 (orderings and trends, not absolute numbers).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.baselines  # noqa: F401
from repro.core.problem import CAPInstance
from repro.core.registry import solve as registry_solve
from repro.core.two_phase import solve_cap
from repro.core.validation import validate_assignment
from repro.experiments.config import config_from_label
from repro.experiments.runner import run_replications
from repro.measurement.error import IDMAPS, KING
from repro.measurement.estimators import DelayEstimator
from repro.world.scenario import build_scenario

#: Mid-size configuration: large enough for stable orderings, small enough for CI.
LABEL = "10s-30z-400c-200cp"
PAPER_ALGOS = ["ranz-virc", "ranz-grec", "grez-virc", "grez-grec"]


@pytest.fixture(scope="module")
def replicated():
    config = config_from_label(LABEL)
    return run_replications(config, PAPER_ALGOS, num_runs=3, seed=0)


class TestTable1Shape:
    def test_algorithm_ordering(self, replicated):
        """GreZ-GreC ≥ GreZ-VirC > RanZ-* — the paper's central claim."""
        pqos = {a: replicated.pqos(a) for a in PAPER_ALGOS}
        assert pqos["grez-grec"] >= pqos["grez-virc"] - 1e-9
        assert pqos["grez-virc"] > pqos["ranz-grec"]
        assert pqos["grez-virc"] > pqos["ranz-virc"]
        assert pqos["grez-grec"] > pqos["ranz-grec"]

    def test_delay_aware_initial_assignment_dominates(self, replicated):
        """Delay awareness in the *initial* phase matters more than in the refined one."""
        gain_initial = replicated.pqos("grez-virc") - replicated.pqos("ranz-virc")
        gain_refined = replicated.pqos("ranz-grec") - replicated.pqos("ranz-virc")
        assert gain_initial > gain_refined

    def test_virc_lowest_utilization_ranzgrec_highest(self, replicated):
        util = {a: replicated.utilization(a) for a in PAPER_ALGOS}
        assert util["grez-virc"] <= util["grez-grec"] + 1e-9
        assert util["ranz-virc"] <= util["ranz-grec"] + 1e-9
        assert util["ranz-grec"] >= max(util["grez-virc"], util["ranz-virc"])

    def test_all_solutions_feasible(self):
        config = config_from_label(LABEL)
        scenario = build_scenario(config, seed=3)
        instance = CAPInstance.from_scenario(scenario)
        for algorithm in PAPER_ALGOS:
            assignment = solve_cap(instance, algorithm, seed=0)
            assert validate_assignment(instance, assignment).ok


class TestOptimalityGap:
    def test_grez_grec_close_to_milp_optimum(self):
        """Table 1: GreZ-GreC lands within a few percent of the exact optimum."""
        config = config_from_label("5s-15z-200c-100cp")
        gaps = []
        for seed in range(3):
            scenario = build_scenario(config, seed=seed)
            instance = CAPInstance.from_scenario(scenario)
            heuristic = solve_cap(instance, "grez-grec", seed=seed)
            optimal = registry_solve(instance, "optimal", seed=seed)
            gaps.append(optimal.pqos(instance) - heuristic.pqos(instance))
        assert np.mean(gaps) >= -1e-9  # optimum is an upper bound
        assert np.mean(gaps) < 0.06  # heuristic is close (paper: 0.82 vs 0.83)


class TestCorrelationShape:
    def test_grez_benefits_from_correlation_ranz_does_not(self):
        """Figure 5(a): GreZ-based pQoS rises with δ; RanZ-based stays flat."""
        config_low = config_from_label(LABEL, correlation=0.0, delay_bound_ms=200.0)
        config_high = config_from_label(LABEL, correlation=1.0, delay_bound_ms=200.0)
        low = run_replications(config_low, ["grez-virc", "ranz-virc"], num_runs=3, seed=1)
        high = run_replications(config_high, ["grez-virc", "ranz-virc"], num_runs=3, seed=1)
        grez_gain = high.pqos("grez-virc") - low.pqos("grez-virc")
        ranz_gain = high.pqos("ranz-virc") - low.pqos("ranz-virc")
        assert grez_gain > 0.05
        assert grez_gain > ranz_gain + 0.03


class TestClusteredDistributionShape:
    def test_virtual_clustering_raises_utilization(self):
        """Figure 6(b): hot zones in the virtual world inflate bandwidth needs."""
        base = config_from_label(LABEL)
        clustered = config_from_label(LABEL, virtual_distribution="clustered")
        uniform_result = run_replications(base, ["grez-grec"], num_runs=2, seed=2)
        clustered_result = run_replications(clustered, ["grez-grec"], num_runs=2, seed=2)
        assert (
            clustered_result.utilization("grez-grec")
            > uniform_result.utilization("grez-grec") - 1e-9
        )


class TestImperfectInputShape:
    def test_grez_grec_degrades_gracefully_with_error(self):
        """Table 4: e=1.2 costs a few points; e=2 costs more; both stay above RanZ."""
        config = config_from_label(LABEL)
        perfect = run_replications(config, ["grez-grec", "ranz-virc"], num_runs=3, seed=4)
        king = run_replications(
            config, ["grez-grec"], num_runs=3, seed=4, estimator=DelayEstimator(KING)
        )
        idmaps = run_replications(
            config, ["grez-grec", "grez-virc"], num_runs=3, seed=4, estimator=DelayEstimator(IDMAPS)
        )
        assert king.pqos("grez-grec") <= perfect.pqos("grez-grec") + 0.02
        assert idmaps.pqos("grez-grec") <= king.pqos("grez-grec") + 0.02
        # Even with the worst estimator, delay-aware beats delay-oblivious.
        assert idmaps.pqos("grez-grec") > perfect.pqos("ranz-virc")
        assert idmaps.pqos("grez-virc") > perfect.pqos("ranz-virc")


class TestRuntimeShape:
    def test_heuristics_are_subsecond(self):
        """Section 4.2: all proposed heuristics run in well under a second."""
        config = config_from_label("20s-80z-1000c-500cp")
        scenario = build_scenario(config, seed=0)
        instance = CAPInstance.from_scenario(scenario)
        for algorithm in PAPER_ALGOS:
            assignment = solve_cap(instance, algorithm, seed=0)
            assert assignment.runtime_seconds < 1.0
