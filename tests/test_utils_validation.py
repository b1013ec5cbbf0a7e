"""Tests for repro.utils.validation — argument validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import check_non_negative, check_positive, check_probability


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive(value, "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ValueError, match="bandwidth"):
            check_positive(-3, "bandwidth")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_non_negative(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="depth"):
            check_non_negative(float("inf"), "depth")

    def test_accepts_positive_unchanged(self):
        assert check_non_negative(7, "x") == 7


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")


    def test_returns_float(self):
        value = check_probability(1, "p")
        assert value == 1.0 and isinstance(value, float)
