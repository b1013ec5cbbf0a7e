"""Throughput engine: the arena-backed epoch loop, end to end.

The throughput optimisations (recycled population/delay buffers, the cached
zone-sampling plan, trusted churn batches, the survivor-index cache, batched
record emission) must not change a record.  These tests run the engine with
every world advance and every measurement checked against the test oracles
(``advance_oracle_spy``, ``measure_oracle_spy``), check the one-pass churn
application against the snapshot oracle, and exercise the batch/driver
plumbing the benchmark relies on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.churn import ChurnSpec, generate_churn
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.events import ChurnBatch, apply_churn
from repro.dynamics.policies import carry_over_assignment
from repro.experiments.loadgen import _percentile, format_loadgen, run_loadgen
from repro.utils.arena import EpochArena
from repro.world.distributions import ZoneSamplingPlan, sample_client_zones
from repro.world.scenario import DVEConfig, build_scenario

from tests.reference.churn_snapshots import apply_churn_snapshots, assert_same_churn
from tests.reference.measurement_full import checked_measures
from tests.reference.world_rebuild import checked_advances

LABEL_CONFIG = dict(
    num_servers=8, num_zones=24, num_clients=120, total_capacity_mbps=200.0
)


def _scenario(seed=5, correlation=0.0):
    return build_scenario(DVEConfig(correlation=correlation, **LABEL_CONFIG), seed=seed)


def _records(churn, epochs=5, seed=9):
    simulator = ChurnSimulator(
        scenario=_scenario(),
        algorithms=["grez-grec"],
        churn_spec=churn,
        seed=seed,
        policy="warm_start",
    )
    session = simulator.session(epochs)
    records = []
    for _ in range(epochs):
        records.extend(session.run_epoch())
    return records


def _assert_identical(records_a, records_b):
    assert len(records_a) == len(records_b)
    for rec_a, rec_b in zip(records_a, records_b):
        for field in EpochRecord.FIELDS:
            value_a, value_b = getattr(rec_a, field), getattr(rec_b, field)
            if isinstance(value_a, float) and math.isnan(value_a):
                assert isinstance(value_b, float) and math.isnan(value_b), field
            else:
                assert value_a == value_b, field


class TestArenaEngineOracles:
    @pytest.mark.parametrize(
        "churn",
        [
            ChurnSpec(num_joins=0, num_leaves=0, num_moves=0),
            ChurnSpec(num_joins=15, num_leaves=0, num_moves=0),
            ChurnSpec(num_joins=0, num_leaves=12, num_moves=0),
            ChurnSpec(num_joins=0, num_leaves=0, num_moves=14),
            ChurnSpec(num_joins=30, num_leaves=25, num_moves=20),
        ],
        ids=["quiet", "joins", "leaves", "moves", "mixed"],
    )
    def test_churn_mixes(self, churn, advance_oracle_spy, measure_oracle_spy):
        assert len(_records(churn)) == 5
        assert advance_oracle_spy == [True] * 5
        assert measure_oracle_spy.count("carried_qos_count") == 5


class TestRunBatch:
    def test_run_batch_equals_repeated_run_epoch(self):
        churn = ChurnSpec(num_joins=6, num_leaves=6, num_moves=6)

        def _simulator():
            return ChurnSimulator(
                scenario=_scenario(),
                algorithms=["grez-grec"],
                churn_spec=churn,
                seed=4,
                policy="warm_start",
            )

        batched = _simulator().session(6).run_batch(6)
        looped_session = _simulator().session(6)
        looped = []
        for _ in range(6):
            looped.extend(looped_session.run_epoch())
        _assert_identical(batched, looped)

    def test_run_batch_validates_k(self):
        session = ChurnSimulator(scenario=_scenario(), algorithms=["grez-grec"]).session(3)
        with pytest.raises(ValueError):
            session.run_batch(0)


class TestAllocProfile:
    def test_alloc_profile_fills_phase_bytes(self):
        import tracemalloc

        session = ChurnSimulator(
            scenario=_scenario(),
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=5, num_leaves=5, num_moves=5),
            seed=1,
            policy="warm_start",
        ).session(2)
        session.alloc_profile = True
        assert set(session.phase_alloc_bytes) == set(session.phase_seconds)
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        try:
            session.run_batch(2)
        finally:
            if started_here:
                tracemalloc.stop()
        assert sum(session.phase_alloc_bytes.values()) > 0
        assert set(session.last_phase_alloc_bytes) == set(session.phase_seconds)


class TestZoneSamplingPlan:
    def test_plan_reproduces_unplanned_draws(self):
        scenario = _scenario()
        spec = scenario.config.distribution_spec
        plan = ZoneSamplingPlan.build(scenario.topology, scenario.num_zones, spec)
        nodes = scenario.population.nodes[:40]
        planned = sample_client_zones(
            scenario.topology, nodes, scenario.num_zones, spec, seed=77, plan=plan
        )
        unplanned = sample_client_zones(
            scenario.topology, nodes, scenario.num_zones, spec, seed=77
        )
        np.testing.assert_array_equal(planned, unplanned)

    def test_plan_for_wrong_world_rejected(self):
        scenario = _scenario()
        spec = scenario.config.distribution_spec
        plan = ZoneSamplingPlan.build(scenario.topology, scenario.num_zones, spec)
        with pytest.raises(ValueError, match="different world"):
            sample_client_zones(
                scenario.topology,
                scenario.population.nodes[:5],
                scenario.num_zones + 1,
                spec,
                seed=0,
                plan=plan,
            )


class TestTrustedChurnPath:
    def test_generate_churn_with_plan_is_identical(self):
        scenario = _scenario()
        spec = scenario.config.distribution_spec
        plan = ZoneSamplingPlan.build(scenario.topology, scenario.num_zones, spec)
        churn_spec = ChurnSpec(num_joins=9, num_leaves=8, num_moves=7)
        fast = generate_churn(scenario, churn_spec, seed=21, zone_plan=plan)
        slow = generate_churn(scenario, churn_spec, seed=21)
        for field in ("join_nodes", "join_zones", "leave_indices", "move_indices", "move_zones"):
            np.testing.assert_array_equal(getattr(fast, field), getattr(slow, field))

    def test_trusted_skips_validation_but_not_values(self):
        batch = ChurnBatch.trusted(
            np.array([3, 4], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([5], dtype=np.int64),
            np.array([7], dtype=np.int64),
        )
        assert batch.num_joins == 2 and batch.num_leaves == 1 and batch.num_moves == 1

    def test_apply_churn_matches_snapshot_oracle(self):
        scenario = _scenario()
        batch = generate_churn(scenario, ChurnSpec(5, 5, 5), seed=3)
        for arena in (EpochArena(), None):
            churn = apply_churn(scenario.population, batch, arena)
            assert churn.survivors_old is not None
            assert_same_churn(churn, apply_churn_snapshots(scenario.population, batch))

    def test_carry_over_fast_path_matches_spec(self):
        from repro.core.two_phase import solve_cap

        from repro.core.problem import CAPInstance

        scenario = _scenario()
        instance = CAPInstance.from_scenario(scenario)
        assignment = solve_cap(instance)
        batch = generate_churn(scenario, ChurnSpec(6, 6, 6), seed=8)
        fast_churn = apply_churn(scenario.population, batch, EpochArena())
        spec_churn = apply_churn_snapshots(scenario.population, batch)
        new_scenario = scenario.apply_churn_delta(fast_churn)
        new_instance = CAPInstance.from_scenario(new_scenario)
        fast = carry_over_assignment(assignment, fast_churn, new_instance)
        slow = carry_over_assignment(assignment, spec_churn, new_instance)
        np.testing.assert_array_equal(fast.contact_of_client, slow.contact_of_client)
        assert fast.capacity_exceeded == slow.capacity_exceeded


@settings(deadline=None, max_examples=25)
@given(
    joins=st.integers(min_value=0, max_value=20),
    leaves=st.integers(min_value=0, max_value=20),
    moves=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_engine_matches_oracles(joins, leaves, moves, seed):
    """Every advance and measurement matches its oracle for any churn mix (hypothesis)."""
    churn = ChurnSpec(num_joins=joins, num_leaves=leaves, num_moves=moves)
    with checked_advances() as advances, checked_measures() as measures:
        assert len(_records(churn, epochs=3, seed=seed)) == 3
    assert len(advances) == 3
    assert measures.count("carried_qos_count") == 3


class TestLoadgen:
    def _simulator(self):
        config = DVEConfig(correlation=0.0, **LABEL_CONFIG)
        return ChurnSimulator(
            scenario=build_scenario(config, seed=0),
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(3, 3, 3),
            seed=0,
            policy="warm_start",
        )

    def test_run_loadgen_smoke(self):
        simulator = self._simulator()
        result = run_loadgen(simulator, epochs=4, warmup=1, alloc_profile=True, alloc_epochs=2)
        assert result.label == simulator.scenario.config.label
        assert result.policy == "warm_start"
        assert result.epochs == 4
        assert result.events_per_epoch == 9
        assert result.epochs_per_sec > 0
        assert result.p99_epoch_ms >= result.p50_epoch_ms
        assert result.alloc_bytes_per_epoch is not None
        assert result.alloc_bytes_per_epoch > 0
        assert result.arena_stats["acquires"] > 0
        table = format_loadgen(result)
        assert "epochs/s" in table

    def test_run_loadgen_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_loadgen(self._simulator(), epochs=0)
        with pytest.raises(ValueError):
            run_loadgen(self._simulator(), epochs=1, warmup=-1)

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
    @pytest.mark.parametrize("q", [50, 99])
    def test_percentile_matches_numpy(self, n, q):
        walls = np.random.default_rng(n).exponential(1e-3, size=n)
        expected = np.percentile(walls, q)
        assert _percentile(walls, q) == pytest.approx(expected, rel=1e-12, abs=0.0)
