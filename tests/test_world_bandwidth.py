"""Tests for repro.world.bandwidth — the quadratic bandwidth model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.bandwidth import DEFAULT_FRAME_RATE, DEFAULT_MESSAGE_BYTES, BandwidthModel


class TestDefaults:
    def test_paper_defaults(self):
        assert DEFAULT_FRAME_RATE == 25.0
        assert DEFAULT_MESSAGE_BYTES == 100.0

    def test_stream_bps(self):
        # 25 msg/s × 100 B × 8 bit = 20 kbit/s per stream.
        assert BandwidthModel().stream_bps == pytest.approx(20_000.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BandwidthModel(frame_rate=0)
        with pytest.raises(ValueError):
            BandwidthModel(message_bytes=-1)


class TestClientTargetDemands:
    def test_demand_grows_with_zone_population(self):
        model = BandwidthModel()
        zones = np.array([0, 0, 0, 1])  # zone 0 has 3 clients, zone 1 has 1
        demands = model.client_target_demands(zones, num_zones=2)
        # client in zone 0: stream * (3 + 1); client in zone 1: stream * (1 + 1)
        assert demands[0] == pytest.approx(model.stream_bps * 4)
        assert demands[3] == pytest.approx(model.stream_bps * 2)

    def test_all_strictly_positive(self):
        model = BandwidthModel()
        demands = model.client_target_demands(np.array([0, 1, 2]), num_zones=5)
        assert (demands > 0).all()

    def test_empty_population(self):
        model = BandwidthModel()
        assert model.client_target_demands(np.array([], dtype=int), 3).size == 0

    def test_zone_out_of_range(self):
        with pytest.raises(ValueError):
            BandwidthModel().client_target_demands(np.array([5]), num_zones=3)


class TestZoneDemands:
    def test_quadratic_growth(self):
        model = BandwidthModel()
        # p clients in one zone → stream * p * (p + 1).
        for p in (1, 2, 5, 10):
            zones = np.zeros(p, dtype=int)
            demand = model.zone_demands(zones, num_zones=1)[0]
            assert demand == pytest.approx(model.stream_bps * p * (p + 1))

    def test_zone_demand_equals_sum_of_client_demands(self):
        model = BandwidthModel()
        rng = np.random.default_rng(0)
        zones = rng.integers(0, 6, size=40)
        per_client = model.client_target_demands(zones, 6)
        per_zone = model.zone_demands(zones, 6)
        summed = np.zeros(6)
        np.add.at(summed, zones, per_client)
        np.testing.assert_allclose(per_zone, summed)

    def test_empty_zone_has_zero_demand(self):
        model = BandwidthModel()
        demands = model.zone_demands(np.array([0, 0]), num_zones=3)
        assert demands[1] == 0.0 and demands[2] == 0.0


class TestForwardingAndTotals:
    def test_double_frame_rate_doubles_demand(self):
        zones = np.array([0, 0, 1])
        base = BandwidthModel().zone_demands(zones, 2).sum()
        double = BandwidthModel(frame_rate=50.0).zone_demands(zones, 2).sum()
        assert double == pytest.approx(2 * base)
