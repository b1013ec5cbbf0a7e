"""Tests for repro.io.ascii_plot — terminal charts for the paper's figures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.io.ascii_plot import HEIGHT, WIDTH, cdf_chart, line_chart, sparkline
from repro.metrics.cdf import delay_cdf


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_uses_increasing_levels(self):
        text = sparkline([0, 1, 2, 3, 4, 5])
        assert text[0] == " " and text[-1] == "@"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "@@@"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_explicit_bounds(self):
        clipped = sparkline([5.0], lo=0.0, hi=10.0)
        assert len(clipped) == 1


class TestLineChart:
    def test_contains_title_axis_and_legend(self):
        text = line_chart(
            [0, 1, 2, 3],
            {"grez-grec": [0.9, 0.92, 0.95, 0.99], "ranz-virc": [0.6, 0.59, 0.61, 0.6]},
            title="pQoS vs correlation",
            x_label="correlation",
            y_label="pQoS",
        )
        assert "pQoS vs correlation" in text
        assert "legend:" in text
        assert "grez-grec" in text and "ranz-virc" in text
        assert "correlation" in text

    def test_markers_distinct_per_series(self):
        text = line_chart([0, 1], {"a": [0, 1], "b": [1, 0]})
        assert "* a" in text and "+ b" in text

    def test_dimensions(self):
        text = line_chart([0, 1, 2], {"s": [1, 2, 3]})
        plot_lines = [l for l in text.splitlines() if "|" in l]
        assert len(plot_lines) == HEIGHT
        assert all(len(l.split("|", 1)[1]) <= WIDTH for l in plot_lines)

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart([], {"a": []})
        with pytest.raises(ValueError):
            line_chart([0, 1], {})
        with pytest.raises(ValueError):
            line_chart([0, 1], {"a": [1]})

    def test_constant_series_does_not_crash(self):
        text = line_chart([0, 1, 2], {"flat": [0.5, 0.5, 0.5]})
        assert "flat" in text


class TestCdfChart:
    def test_plots_shared_grid(self):
        grid = np.linspace(250, 500, 11)
        cdfs = {
            "grez-grec": delay_cdf(np.random.default_rng(0).uniform(100, 300, 500), grid=grid),
            "ranz-virc": delay_cdf(np.random.default_rng(1).uniform(150, 500, 500), grid=grid),
        }
        text = cdf_chart(cdfs, title="Figure 4")
        assert "Figure 4" in text
        assert "delay (ms)" in text
        assert "CDF" in text

    def test_mismatched_grids_rejected(self):
        a = delay_cdf(np.array([300.0]), grid=np.linspace(250, 500, 5))
        b = delay_cdf(np.array([300.0]), grid=np.linspace(250, 500, 7))
        with pytest.raises(ValueError):
            cdf_chart({"a": a, "b": b})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_chart({})
