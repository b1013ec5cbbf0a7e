"""Tests for repro.experiments.config — the <m>s-<n>z-<k>c-<P>cp notation."""

from __future__ import annotations

import pytest

from repro.experiments.config import (
    PAPER_DEFAULT_LABEL,
    PAPER_SMALL_LABELS,
    PAPER_TABLE1_LABELS,
    config_from_label,
    paper_default_config,
    parse_config_label,
)
from repro.world.bandwidth import FRAME_RATE, MESSAGE_BYTES


class TestParseLabel:
    def test_paper_default(self):
        parsed = parse_config_label("20s-80z-1000c-500cp")
        assert parsed == {
            "num_servers": 20,
            "num_zones": 80,
            "num_clients": 1000,
            "total_capacity_mbps": 500.0,
        }

    def test_case_insensitive_and_whitespace(self):
        assert parse_config_label("  5S-15Z-200C-100CP ")["num_servers"] == 5

    def test_fractional_capacity(self):
        assert parse_config_label("2s-4z-10c-12.5cp")["total_capacity_mbps"] == 12.5

    @pytest.mark.parametrize("bad", ["", "20s-80z-1000c", "s-z-c-cp", "20x-80z-1000c-500cp"])
    def test_invalid_labels(self, bad):
        with pytest.raises(ValueError):
            parse_config_label(bad)


class TestConfigFromLabel:
    def test_round_trip_label(self):
        for label in PAPER_TABLE1_LABELS:
            assert config_from_label(label).label == label

    def test_overrides_applied(self):
        config = config_from_label("5s-15z-200c-100cp", correlation=0.0, delay_bound_ms=200.0)
        assert config.correlation == 0.0
        assert config.delay_bound_ms == 200.0

    def test_defaults_match_section_41(self):
        config = config_from_label(PAPER_DEFAULT_LABEL)
        assert config.delay_bound_ms == 250.0
        assert config.correlation == 0.5
        assert config.min_server_capacity_mbps == 10.0
        assert FRAME_RATE == 25.0
        assert MESSAGE_BYTES == 100.0


class TestPaperConstants:
    def test_table1_labels(self):
        assert PAPER_TABLE1_LABELS == (
            "5s-15z-200c-100cp",
            "10s-30z-400c-200cp",
            "20s-80z-1000c-500cp",
            "30s-160z-2000c-1000cp",
        )

    def test_small_labels_are_first_two(self):
        assert PAPER_SMALL_LABELS == PAPER_TABLE1_LABELS[:2]

    def test_default_config_label(self):
        assert paper_default_config().label == PAPER_DEFAULT_LABEL
