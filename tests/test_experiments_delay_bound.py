"""Tests for repro.experiments.delay_bound — the D-sensitivity extension (E10)."""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.baselines  # noqa: F401
from repro.experiments.config import ExperimentConfig, run
from repro.experiments.delay_bound import DEFAULT_BOUNDS_MS, DELAY_BOUND, format_delay_bound

SMALL_LABEL = "5s-15z-200c-100cp"


def run_delay_bound(bounds_ms, algorithms, num_runs):
    """The delay-bound sweep on :data:`SMALL_LABEL`, seed 0."""
    spec = replace(
        DELAY_BOUND, labels=(SMALL_LABEL,), sweep=tuple(bounds_ms), algorithms=algorithms
    )
    return run(spec, ExperimentConfig(num_runs=num_runs, seed=0))


class TestRunDelayBound:
    @pytest.fixture(scope="class")
    def result(self):
        return run_delay_bound(
            bounds_ms=[100.0, 250.0, 500.0],
            algorithms=("ranz-virc", "grez-virc", "grez-grec"),
            num_runs=2,
        )

    def test_structure(self, result):
        assert result.keys == [100.0, 250.0, 500.0]
        rows = result.panel("pqos")
        assert len(rows) == 3 and len(rows[0]) == 4

    def test_pqos_monotone_in_delay_bound(self, result):
        """A looser bound can only admit more clients."""
        for algorithm in result.algorithms:
            series = result.pqos_series(algorithm)
            assert series == sorted(series)

    def test_everyone_qualifies_at_max_rtt(self, result):
        # D = 500 ms equals the maximum RTT, so every client has QoS.
        assert result.results[500.0].pqos("grez-grec") == pytest.approx(1.0, abs=1e-6)

    def test_grez_dominates_ranz_at_every_bound(self, result):
        for i in range(len(result.keys)):
            assert result.pqos_series("grez-grec")[i] >= result.pqos_series("ranz-virc")[i]

    def test_refinement_gain_non_negative(self, result):
        gains = zip(result.pqos_series("grez-grec"), result.pqos_series("grez-virc"))
        assert all(grec - virc >= -1e-9 for grec, virc in gains)

    def test_panel_validation(self, result):
        with pytest.raises(ValueError):
            result.panel("latency")

    def test_gain_table_needs_both_algorithms(self):
        partial = run_delay_bound(bounds_ms=[250.0], algorithms=("grez-grec",), num_runs=1)
        assert "Where the refined phase pays off" not in format_delay_bound(partial)


class TestFormatting:
    def test_format_contains_both_panels(self):
        result = run_delay_bound(
            bounds_ms=[200.0, 400.0], algorithms=("grez-virc", "grez-grec"), num_runs=1
        )
        text = format_delay_bound(result)
        assert "pQoS" in text
        assert "resource utilisation" in text
        assert "Where the refined phase pays off" in text

    def test_default_bounds_cover_game_genres(self):
        assert min(DEFAULT_BOUNDS_MS) <= 100.0
        assert max(DEFAULT_BOUNDS_MS) >= 500.0

    def test_registered_in_experiment_registry(self):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("delay-bound")
        assert spec is DELAY_BOUND and spec.supports_workers
        assert callable(spec.execute) and callable(spec.format)
