"""Tests for repro.world.bandwidth — the quadratic bandwidth model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.bandwidth import FRAME_RATE, MESSAGE_BYTES, STREAM_BPS, client_target_demands


class TestConstants:
    def test_paper_values(self):
        assert FRAME_RATE == 25.0
        assert MESSAGE_BYTES == 100.0

    def test_stream_bps(self):
        # 25 msg/s × 100 B × 8 bit = 20 kbit/s per stream.
        assert STREAM_BPS == 20_000.0


class TestClientTargetDemands:
    def test_demand_grows_with_zone_population(self):
        zones = np.array([0, 0, 0, 1])  # zone 0 has 3 clients, zone 1 has 1
        demands = client_target_demands(zones, num_zones=2)
        # client in zone 0: stream * (3 + 1); client in zone 1: stream * (1 + 1)
        assert demands[0] == pytest.approx(STREAM_BPS * 4)
        assert demands[3] == pytest.approx(STREAM_BPS * 2)

    def test_all_strictly_positive(self):
        demands = client_target_demands(np.array([0, 1, 2]), num_zones=5)
        assert (demands > 0).all()

    def test_empty_population(self):
        assert client_target_demands(np.array([], dtype=int), 3).size == 0

    def test_zone_out_of_range(self):
        with pytest.raises(ValueError):
            client_target_demands(np.array([5]), num_zones=3)

    def test_zone_total_grows_quadratically(self):
        # p clients in one zone → stream * p * (p + 1) in total.
        for p in (1, 2, 5, 10):
            demand = client_target_demands(np.zeros(p, dtype=int), num_zones=1).sum()
            assert demand == pytest.approx(STREAM_BPS * p * (p + 1))

    def test_out_buffer_is_bit_identical(self):
        zones = np.random.default_rng(0).integers(0, 6, size=40)
        out = np.empty(40)
        written = client_target_demands(zones, 6, out=out)
        assert written is out
        np.testing.assert_array_equal(out, client_target_demands(zones, 6))
