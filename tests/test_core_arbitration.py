"""Tests for repro.core.arbitration — cross-shard capacity arbiters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.arbitration import (
    ARBITER_NAMES,
    ProportionalArbiter,
    RegretArbiter,
    ShardSignal,
    StaticArbiter,
    check_slices,
    make_arbiter,
)


def _signal(shard_id, demand, capacities, loads=None, **extra):
    capacities = np.asarray(capacities, dtype=np.float64)
    return ShardSignal(
        shard_id=shard_id,
        total_demand=float(demand),
        capacities=capacities,
        server_loads=np.zeros_like(capacities) if loads is None else np.asarray(loads),
        pqos=1.0,
        capacity_exceeded=False,
        **extra,
    )


class TestMakeArbiter:
    def test_names_resolve(self):
        for name in ARBITER_NAMES:
            arbiter = make_arbiter(name)
            assert arbiter.name == name

    def test_instance_passes_through(self):
        arbiter = ProportionalArbiter(min_slice_fraction=0.1)
        assert make_arbiter(arbiter) is arbiter

    def test_knob_overrides(self):
        arbiter = make_arbiter("proportional", min_slice_fraction=0.2, rebalance_threshold=0.1)
        assert arbiter.min_slice_fraction == 0.2
        assert arbiter.rebalance_threshold == 0.1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown arbiter"):
            make_arbiter("nonsense")

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            ProportionalArbiter(min_slice_fraction=0.0)
        with pytest.raises(ValueError):
            ProportionalArbiter(rebalance_threshold=-0.1)


class TestCheckSlices:
    def test_accepts_conserving_positive_slices(self):
        caps = np.array([10.0, 20.0])
        slices = np.array([[4.0, 15.0], [6.0, 5.0]])
        out = check_slices(slices, caps, 2)
        assert np.array_equal(out, slices)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            check_slices(np.ones((2, 3)), np.ones(2), 2)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            check_slices(np.array([[1.0, 0.0], [0.0, 1.0]]), np.ones(2), 2)

    def test_rejects_non_conserving(self):
        with pytest.raises(ValueError, match="conservation"):
            check_slices(np.array([[1.0, 1.0], [1.0, 1.5]]), np.full(2, 2.0), 2)


class TestStaticArbiter:
    def test_never_rebalances(self):
        caps = np.array([10.0, 10.0])
        signals = [_signal(0, 100.0, caps / 2), _signal(1, 1.0, caps / 2)]
        assert StaticArbiter().arbitrate(caps, signals) is None


class TestProportionalArbiter:
    def test_slices_follow_total_demand(self):
        caps = np.array([10.0, 30.0])
        signals = [_signal(0, 3.0, caps / 2), _signal(1, 1.0, caps / 2)]
        slices = ProportionalArbiter(min_slice_fraction=0.01).arbitrate(caps, signals)
        assert slices is not None
        assert np.allclose(slices.sum(axis=0), caps, rtol=1e-12)
        # Shard 0 has 3x the demand -> close to 3x the slice on every server
        # (softened slightly by the minimum-slice floor).
        assert (slices[0] > 2.5 * slices[1]).all()

    def test_zero_demand_falls_back_to_equal_split(self):
        caps = np.array([8.0, 8.0])
        signals = [_signal(0, 0.0, caps / 2), _signal(1, 0.0, caps / 2)]
        slices = ProportionalArbiter().arbitrate(caps, signals)
        # Equal split == the current slices -> no shift -> stand pat.
        assert slices is None

    def test_min_slice_floor_protects_idle_shard(self):
        caps = np.array([100.0])
        signals = [_signal(0, 1000.0, np.array([50.0])), _signal(1, 0.0, np.array([50.0]))]
        slices = ProportionalArbiter(min_slice_fraction=0.1).arbitrate(caps, signals)
        assert slices[1][0] == pytest.approx(10.0)

    def test_floor_capped_at_equal_split(self):
        caps = np.array([100.0])
        signals = [
            _signal(0, 5.0, np.array([30.0])),
            _signal(1, 5.0, np.array([30.0])),
            _signal(2, 5.0, np.array([40.0])),
        ]
        # An infeasible floor (3 x 0.5 > 1) is capped at 1/num_shards.
        slices = ProportionalArbiter(min_slice_fraction=0.5).arbitrate(caps, signals)
        assert np.allclose(slices[:, 0], 100.0 / 3)

    def test_hysteresis_suppresses_small_shifts(self):
        caps = np.array([100.0])
        signals = [
            _signal(0, 51.0, np.array([50.0])),
            _signal(1, 49.0, np.array([50.0])),
        ]
        eager = ProportionalArbiter(min_slice_fraction=0.01, rebalance_threshold=0.0)
        damped = ProportionalArbiter(min_slice_fraction=0.01, rebalance_threshold=0.05)
        assert eager.arbitrate(caps, signals) is not None
        assert damped.arbitrate(caps, signals) is None


class TestRegretArbiter:
    def test_requires_zone_costs(self):
        caps = np.array([10.0, 10.0])
        signals = [_signal(0, 5.0, caps / 2), _signal(1, 5.0, caps / 2)]
        assert RegretArbiter.needs_zone_costs
        with pytest.raises(ValueError, match="zone_costs"):
            RegretArbiter().arbitrate(caps, signals)

    def test_capacity_follows_zone_preferences(self):
        # Two servers, two shards.  Shard 0's zones are cheap on server 0 and
        # expensive on server 1; shard 1 is the mirror image.  The pooled
        # max-regret placement sends each shard's zones home, so each shard's
        # slice concentrates on its preferred server.
        caps = np.array([10.0, 10.0])
        zone_costs_0 = np.array([[0.0, 0.0], [5.0, 5.0]])  # (servers, zones)
        zone_costs_1 = np.array([[5.0, 5.0], [0.0, 0.0]])
        signals = [
            _signal(
                0, 8.0, caps / 2,
                zone_demands=np.array([4.0, 4.0]), zone_costs=zone_costs_0,
            ),
            _signal(
                1, 8.0, caps / 2,
                zone_demands=np.array([4.0, 4.0]), zone_costs=zone_costs_1,
            ),
        ]
        slices = RegretArbiter(min_slice_fraction=0.05).arbitrate(caps, signals)
        assert slices is not None
        assert np.allclose(slices.sum(axis=0), caps, rtol=1e-12)
        assert slices[0, 0] > slices[1, 0]  # shard 0 owns most of server 0
        assert slices[1, 1] > slices[0, 1]  # shard 1 owns most of server 1

    @pytest.mark.parametrize("recompute", [False, True])
    def test_pooled_placement_matches_loop_oracle(self, regret_oracle_spy, recompute):
        rng = np.random.default_rng(5)
        caps = rng.uniform(5.0, 15.0, size=4)
        signals = []
        for shard in range(3):
            zones = 6
            signals.append(
                _signal(
                    shard,
                    10.0,
                    caps / 3,
                    zone_demands=rng.uniform(0.5, 2.0, size=zones),
                    zone_costs=rng.uniform(0.0, 10.0, size=(4, zones)),
                )
            )
        RegretArbiter(recompute=recompute).arbitrate(caps, signals)
        assert regret_oracle_spy == ["max_regret_assign"]


class TestArbitrateContract:
    @pytest.mark.parametrize("name", ["proportional", "regret"])
    def test_output_always_passes_check_slices(self, name):
        rng = np.random.default_rng(17)
        for trial in range(10):
            num_shards = int(rng.integers(1, 5))
            num_servers = int(rng.integers(1, 6))
            caps = rng.uniform(1.0, 20.0, size=num_servers)
            current = np.tile(caps / num_shards, (num_shards, 1))
            signals = [
                _signal(
                    s,
                    float(rng.uniform(0.0, 50.0)),
                    current[s],
                    zone_demands=rng.uniform(0.1, 3.0, size=4),
                    zone_costs=rng.uniform(0.0, 5.0, size=(num_servers, 4)),
                )
                for s in range(num_shards)
            ]
            slices = make_arbiter(name).arbitrate(caps, signals)
            if slices is not None:
                check_slices(slices, caps, num_shards)
