"""Determinism contract of the parallel replication engine.

The headline guarantee: for the same seed, ``run_replications`` produces
bit-identical per-run observations no matter how many worker processes
execute the runs (only ``runtime_seconds``, a wall-clock measurement, is
exempt).  The same holds for the dynamics experiment's per-run loop.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro.baselines  # noqa: F401
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, run
from repro.experiments.figure6 import FIGURE6
from repro.experiments.runner import ReplicatedResult, run_replications
from repro.experiments.runtime import RUNTIME
from repro.experiments.table3 import TABLE3
from repro.measurement.error import IDMAPS
from repro.measurement.estimators import DelayEstimator
from repro.utils import pool as pool_module
from tests.conftest import make_small_config

ALGORITHMS = ["ranz-virc", "grez-grec"]


class _PicklingPool:
    """Stands in for a process pool: pickles the tasks as a pool would ship
    them, records the payload, and maps an unpickled copy in-process."""

    def __init__(self):
        self.payloads = []

    def map(self, fn, iterable, chunksize=1):
        self.payloads.append(pickle.dumps(list(iterable)))
        return map(fn, pickle.loads(self.payloads[-1]))

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def pools():
    """The replication pools by worker count, shut down after the test."""
    pool_module._shutdown_pools()
    yield pool_module._POOLS
    pool_module._shutdown_pools()


def _assert_identical_observations(a: ReplicatedResult, b: ReplicatedResult) -> None:
    assert list(a.summaries) == list(b.summaries)
    for name in a.summaries:
        obs_a, obs_b = a.observations[name], b.observations[name]
        assert len(obs_a) == len(obs_b) == a.num_runs
        for run_a, run_b in zip(obs_a, obs_b):
            assert run_a.pqos == run_b.pqos
            assert run_a.utilization == run_b.utilization
            assert run_a.capacity_exceeded == run_b.capacity_exceeded
            if run_a.delays is None:
                assert run_b.delays is None
            else:
                np.testing.assert_array_equal(run_a.delays, run_b.delays)


class TestParallelDeterminism:
    def test_workers_4_bit_identical_to_serial(self):
        config = make_small_config(num_clients=60, num_zones=6)
        kwargs = dict(
            num_runs=4, seed=11, collect_delays=True, keep_observations=True
        )
        serial = run_replications(config, ALGORITHMS, workers=1, **kwargs)
        parallel = run_replications(config, ALGORITHMS, workers=4, **kwargs)
        _assert_identical_observations(serial, parallel)
        for name in ALGORITHMS:
            assert serial.pqos(name) == parallel.pqos(name)
            assert serial.utilization(name) == parallel.utilization(name)

    def test_workers_auto_matches_serial(self):
        config = make_small_config(num_clients=50, num_zones=5)
        serial = run_replications(
            config, ["grez-grec"], num_runs=3, seed=4, keep_observations=True
        )
        auto = run_replications(
            config, ["grez-grec"], num_runs=3, seed=4, keep_observations=True, workers=0
        )
        _assert_identical_observations(serial, auto)

    def test_estimator_and_shared_topology_survive_pickling(self):
        config = make_small_config(num_clients=50, num_zones=5)
        kwargs = dict(
            num_runs=3,
            seed=2,
            estimator=DelayEstimator(IDMAPS),
            share_topology=True,
            keep_observations=True,
        )
        serial = run_replications(config, ["grez-grec"], **kwargs)
        parallel = run_replications(config, ["grez-grec"], workers=3, **kwargs)
        _assert_identical_observations(serial, parallel)

    def test_cdf_aggregation_identical(self):
        config = make_small_config(num_clients=50, num_zones=5)
        grid = np.linspace(0, 500, 11)
        serial = run_replications(
            config, ["grez-grec"], num_runs=2, seed=0, collect_delays=True, cdf_grid=grid
        )
        parallel = run_replications(
            config,
            ["grez-grec"],
            num_runs=2,
            seed=0,
            collect_delays=True,
            cdf_grid=grid,
            workers=2,
        )
        np.testing.assert_array_equal(
            serial.summaries["grez-grec"].delay_cdf.values,
            parallel.summaries["grez-grec"].delay_cdf.values,
        )

    def test_negative_workers_rejected(self):
        config = make_small_config(num_clients=40, num_zones=4)
        with pytest.raises(ValueError):
            run_replications(config, ["grez-grec"], num_runs=2, seed=0, workers=-2)

    def test_table3_parallel_matches_serial(self):
        spec = replace(TABLE3, labels=("5s-15z-200c-100cp",))
        serial = run(spec, ExperimentConfig(num_runs=2, seed=3))
        parallel = run(spec, ExperimentConfig(num_runs=2, seed=3, workers=2))
        for name in serial.rows:
            for column in ("before", "after", "re-executed", "incremental"):
                assert serial.mean(name, column) == parallel.mean(name, column)


class TestSharedTopologyDispatch:
    """``share_topology`` with parallel workers pickles the shared topology
    and its not-yet-computed delay model with each chunk of runs; results
    stay bit-identical to the serial path."""

    def test_shared_topology_on_pool_bit_identical_to_serial(self):
        config = make_small_config(num_clients=50, num_zones=5)
        kwargs = dict(num_runs=4, seed=9, share_topology=True, keep_observations=True)
        serial = run_replications(config, ALGORITHMS, **kwargs)
        parallel = run_replications(config, ALGORITHMS, workers=3, **kwargs)
        _assert_identical_observations(serial, parallel)

    def test_shared_topology_matches_across_worker_counts(self):
        config = make_small_config(num_clients=40, num_zones=4)
        kwargs = dict(num_runs=3, seed=1, share_topology=True, keep_observations=True)
        a = run_replications(config, ["grez-grec"], workers=2, **kwargs)
        b = run_replications(config, ["grez-grec"], workers=3, **kwargs)
        _assert_identical_observations(a, b)

    def test_tasks_ship_the_delay_model_before_its_matrix(self, pools):
        pools[2] = shipping = _PicklingPool()
        config = make_small_config(num_clients=40, num_zones=4)
        kwargs = dict(num_runs=4, seed=5, share_topology=True, keep_observations=True)
        parallel = run_replications(config, ["grez-grec"], workers=2, **kwargs)
        (payload,) = shipping.payloads
        tasks = pickle.loads(payload)
        assert len(tasks) == 4
        for _, (_, point, _) in tasks:
            # The parent never computes the matrix; workers do, lazily.
            assert point["delay_model"]._rtt is None
            assert point["delay_model"].topology is point["topology"]
        serial = run_replications(config, ["grez-grec"], **kwargs)
        _assert_identical_observations(serial, parallel)

    def test_single_shared_run_starts_no_pool(self, pools):
        config = make_small_config(num_clients=40, num_zones=4)
        run_replications(config, ["grez-grec"], num_runs=1, seed=0, share_topology=True, workers=2)
        assert not pools


class TestExperimentConfig:
    """The entry point hands ``workers`` to the replication pool only when
    it is set and the spec supports it."""

    SMALL = dict(labels=("4s-12z-150c-80cp",), algorithms=("grez-virc",))

    @pytest.fixture
    def pool_workers(self, monkeypatch):
        """The ``workers`` of every replication fan-out, run serially in-process."""
        seen = []
        ordered_map = runner.ordered_map

        def spy(fn, tasks, workers=None):
            seen.append(workers)
            return ordered_map(fn, tasks)

        monkeypatch.setattr(runner, "ordered_map", spy)
        return seen

    def test_run_passes_workers_when_set(self, pool_workers):
        spec = replace(FIGURE6, sweep=(0,), **self.SMALL)
        run(spec, ExperimentConfig(num_runs=2, seed=7, workers=4))
        assert pool_workers == [4]

    def test_run_leaves_unset_workers_serial(self, pool_workers):
        spec = replace(FIGURE6, sweep=(0, 3), **self.SMALL)
        run(spec, ExperimentConfig(num_runs=2, seed=7))
        assert pool_workers == [None, None]

    def test_run_keeps_unsupported_workers_serial(self, pool_workers):
        spec = replace(RUNTIME, **self.SMALL)
        run(spec, ExperimentConfig(num_runs=2, seed=7, workers=4))
        assert pool_workers == [None]

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_runs=0)
        with pytest.raises(ValueError):
            ExperimentConfig(workers=-1)
