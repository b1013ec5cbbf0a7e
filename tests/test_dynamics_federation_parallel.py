"""Determinism contract of thread-parallel federated shard stepping.

The headline guarantee (mirroring the replication engine's): for the same
seed, :meth:`FederatedSimulator.stream` emits a byte-identical record stream
for every ``shard_workers`` value — across arbiters, with every shard's world
advance checked against the rebuild oracle and every measurement against its
full recompute.  Shards
own their state and RNG streams; threads only change *when* a shard steps,
never what it computes, and the engine buffers per-shard records to keep the
emission order deterministic.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

import repro.baselines  # noqa: F401  (registers the baseline solvers)
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.federation_engine import FederatedSimulator
from repro.world.federation import build_federation

from tests.conftest import make_small_config

CHURN = ChurnSpec(num_joins=10, num_leaves=10, num_moves=10)
NUM_EPOCHS = 3

# shard_id is compared explicitly on top of the scenario measurement columns:
# parallel stepping must preserve the per-shard emission order exactly.
COMPARE_FIELDS = EpochRecord.SCENARIO_FIELDS


def _run(
    shard_workers: Optional[int],
    arbiter: str = "proportional",
) -> List[EpochRecord]:
    world = build_federation(
        make_small_config(), num_shards=4, seed=11, client_weights=[4, 3, 2, 1]
    )
    simulator = FederatedSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter=arbiter,
        churn_spec=CHURN,
        seed=5,
        shard_workers=shard_workers,
    )
    return simulator.run(NUM_EPOCHS)


def _assert_identical(serial: List[EpochRecord], parallel: List[EpochRecord]) -> None:
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.shard_id == b.shard_id
        assert a.epoch == b.epoch
        assert a.algorithm == b.algorithm
        assert ChurnSimulator.records_equal(a, b, fields=COMPARE_FIELDS)


class TestParallelShardDeterminism:
    @pytest.mark.parametrize("shard_workers", [2, 4])
    @pytest.mark.parametrize("arbiter", ["static", "proportional", "regret"])
    def test_bit_identical_to_serial(
        self, shard_workers, arbiter, advance_oracle_spy, measure_oracle_spy
    ):
        serial = _run(None, arbiter)
        parallel = _run(shard_workers, arbiter)
        _assert_identical(serial, parallel)
        assert advance_oracle_spy == [True] * (2 * 4 * NUM_EPOCHS)
        assert "carried_qos_count" in measure_oracle_spy

    def test_workers_all_cpus_identical(self):
        _assert_identical(_run(None), _run(0))

    def test_oversubscribed_workers_identical(self):
        # More threads than shards: resolve_workers caps at the shard count.
        _assert_identical(_run(None), _run(16))


class TestParallelProfile:
    def test_profile_populated(self):
        world = build_federation(make_small_config(), num_shards=3, seed=11)
        simulator = FederatedSimulator(
            world=world,
            algorithms=["grez-grec"],
            arbiter="proportional",
            churn_spec=CHURN,
            seed=5,
            shard_workers=2,
        )
        simulator.run(NUM_EPOCHS)
        profile = simulator.last_profile
        assert profile is not None
        assert profile.shard_workers == 2
        assert profile.num_epochs == NUM_EPOCHS
        assert len(profile.shard_wall_seconds) == 3
        assert all(w > 0 for w in profile.shard_wall_seconds)
        assert all(b >= 0 for b in profile.shard_barrier_seconds)
        # The fastest shard of each epoch waits; at least one wait is nonzero.
        assert sum(profile.shard_barrier_seconds) > 0
        assert all(s > 0 for s in profile.shard_solve_seconds)
        assert profile.arbiter_seconds > 0

    def test_serial_profile_has_no_barrier(self):
        world = build_federation(make_small_config(), num_shards=3, seed=11)
        simulator = FederatedSimulator(
            world=world,
            algorithms=["grez-grec"],
            arbiter="proportional",
            churn_spec=CHURN,
            seed=5,
        )
        simulator.run(NUM_EPOCHS)
        profile = simulator.last_profile
        assert profile is not None
        assert profile.shard_workers == 1
        assert profile.shard_barrier_seconds == [0.0, 0.0, 0.0]
        assert all(w > 0 for w in profile.shard_wall_seconds)
