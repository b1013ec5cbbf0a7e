"""Tests for repro.metrics — pQoS, resource utilisation, delay CDFs, aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import Assignment
from repro.core.two_phase import solve_cap
from repro.metrics.cdf import FIGURE4_GRID_MS, EmpiricalCDF, delay_cdf, merge_cdfs
from repro.metrics.qos import client_delays, pqos, qos_report
from repro.metrics.resources import resource_report, resource_utilization
from repro.metrics.summary import AggregateStat, RunningStats, aggregate


@pytest.fixture()
def assignment(tiny_instance):
    zone_map = np.array([0, 1, 2, 0])
    contacts = zone_map[tiny_instance.client_zones].copy()
    contacts[6] = 1  # forwarded client
    return Assignment(zone_to_server=zone_map, contact_of_client=contacts, algorithm="x")


class TestQoSMetrics:
    def test_pqos_matches_assignment_method(self, tiny_instance, assignment):
        assert pqos(tiny_instance, assignment) == pytest.approx(assignment.pqos(tiny_instance))

    def test_client_delays_passthrough(self, tiny_instance, assignment):
        np.testing.assert_allclose(
            client_delays(tiny_instance, assignment), assignment.client_delays(tiny_instance)
        )

    def test_qos_report_fields(self, tiny_instance, assignment):
        report = qos_report(tiny_instance, assignment)
        assert report.num_clients == 8
        assert report.num_with_qos == 7  # only client 7 (120 ms direct) misses
        assert report.pqos == pytest.approx(7 / 8)
        assert report.max_delay_ms == pytest.approx(120.0)
        assert report.mean_excess_ms == pytest.approx(20.0)
        assert report.forwarded_fraction == pytest.approx(1 / 8)
        assert report.median_delay_ms == pytest.approx(50.0)

    def test_qos_report_empty_instance(self):
        from repro.core.problem import CAPInstance

        empty = CAPInstance(
            client_server_delays=np.zeros((0, 2)),
            server_server_delays=np.zeros((2, 2)),
            client_zones=np.zeros(0, dtype=int),
            client_demands=np.zeros(0),
            server_capacities=np.ones(2),
            delay_bound=100.0,
            num_zones=1,
        )
        assignment = Assignment(
            zone_to_server=np.array([0]), contact_of_client=np.zeros(0, dtype=int)
        )
        report = qos_report(empty, assignment)
        assert report.pqos == 1.0 and report.num_clients == 0


class TestResourceMetrics:
    def test_utilization_matches_assignment(self, tiny_instance, assignment):
        assert resource_utilization(tiny_instance, assignment) == pytest.approx(
            assignment.resource_utilization(tiny_instance)
        )

    def test_resource_report_fields(self, tiny_instance, assignment):
        report = resource_report(tiny_instance, assignment)
        assert report.total_capacity_mbps == pytest.approx(3000 / 1e6)
        assert report.forwarding_overhead_mbps == pytest.approx(20.0 / 1e6)
        assert report.overloaded_servers == 0
        assert 0 < report.utilization < 1
        assert report.max_server_utilization >= report.utilization

    def test_virc_has_zero_forwarding_overhead(self, small_instance):
        virc = solve_cap(small_instance, "grez-virc", seed=0)
        assert resource_report(small_instance, virc).forwarding_overhead_mbps == 0.0


class TestEmpiricalCDF:
    def test_monotone_values(self):
        cdf = delay_cdf(
            np.array([100.0, 200.0, 300.0, 400.0]), grid=np.linspace(0, 500, 11)
        )
        assert (np.diff(cdf.values) >= -1e-12).all()
        assert cdf.num_samples == 4

    def test_known_quantiles(self):
        delays = np.array([100.0, 200.0, 300.0, 400.0])
        cdf = delay_cdf(delays, grid=np.array([150.0, 250.0, 450.0]))
        np.testing.assert_allclose(cdf.values, [0.25, 0.5, 1.0])

    def test_at_interpolation(self):
        cdf = EmpiricalCDF(grid=np.array([10.0, 20.0]), values=np.array([0.3, 0.8]), num_samples=5)
        assert cdf.at(5.0) == 0.0
        assert cdf.at(15.0) == pytest.approx(0.3)
        assert cdf.at(100.0) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCDF(grid=np.array([1.0, 2.0]), values=np.array([0.5]), num_samples=1)
        with pytest.raises(ValueError):
            EmpiricalCDF(grid=np.array([2.0, 1.0]), values=np.array([0.1, 0.2]), num_samples=1)
        with pytest.raises(ValueError):
            EmpiricalCDF(grid=np.array([1.0]), values=np.array([1.5]), num_samples=1)

    def test_default_grid_matches_figure4_axis(self):
        cdf = delay_cdf(np.array([300.0]))
        assert cdf.grid[0] == pytest.approx(250.0)
        assert cdf.grid[-1] == pytest.approx(500.0)
        assert cdf.grid.size == 26

    def test_figure4_grid_is_read_only(self):
        # delay_cdf hands the shared grid to every default CDF it builds.
        assert delay_cdf(np.array([300.0])).grid is FIGURE4_GRID_MS
        with pytest.raises(ValueError):
            FIGURE4_GRID_MS[0] = 0.0

    def test_empty_delays(self):
        cdf = delay_cdf(np.array([]), grid=np.linspace(0, 10, 3))
        np.testing.assert_allclose(cdf.values, 1.0)
        assert cdf.num_samples == 0

    def test_merge_weighted_average(self):
        grid = np.array([100.0, 200.0])
        a = EmpiricalCDF(grid=grid, values=np.array([0.0, 1.0]), num_samples=10)
        b = EmpiricalCDF(grid=grid, values=np.array([1.0, 1.0]), num_samples=30)
        merged = merge_cdfs([a, b])
        np.testing.assert_allclose(merged.values, [0.75, 1.0])
        assert merged.num_samples == 40

    def test_merge_requires_same_grid(self):
        a = delay_cdf(np.array([1.0]), grid=np.array([1.0, 2.0]))
        b = delay_cdf(np.array([1.0]), grid=np.array([1.0, 3.0]))
        with pytest.raises(ValueError):
            merge_cdfs([a, b])
        with pytest.raises(ValueError):
            merge_cdfs([])


class TestSummaryStats:
    def test_running_stats_mean_and_std(self):
        values = [1.0, 2.0, 3.0, 4.0]
        stats = RunningStats()
        stats.extend(values)
        assert stats.mean == pytest.approx(np.mean(values))
        assert stats.std == pytest.approx(np.std(values, ddof=1))
        assert stats.stderr == pytest.approx(stats.std / 2)

    def test_single_value_has_zero_variance(self):
        stats = RunningStats()
        stats.add(5.0)
        assert stats.variance == 0.0

    def test_aggregate_round_trip(self):
        agg = aggregate([0.5, 0.7, 0.9])
        assert isinstance(agg, AggregateStat)
        assert agg.mean == pytest.approx(0.7)
        assert agg.count == 3

    def test_format(self):
        agg = aggregate([1.0, 2.0])
        text = f"{agg:.2f}"
        assert "1.50" in text and "±" in text
