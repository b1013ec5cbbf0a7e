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
from repro.topology.brite import generate_topology
from repro.topology.delays import DelayModel
from tests.conftest import make_small_config

ALGORITHMS = ["ranz-virc", "grez-grec"]


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


class TestZeroCopyDispatch:
    """``share_topology`` + parallel workers ship the RTT matrix via shared
    memory: per-task payloads are O(1) in the matrix and results stay
    bit-identical to the plain pickling path."""

    def test_shared_memory_path_bit_identical_to_serial(self):
        config = make_small_config(num_clients=50, num_zones=5)
        kwargs = dict(num_runs=4, seed=9, share_topology=True, keep_observations=True)
        serial = run_replications(config, ALGORITHMS, **kwargs)
        parallel = run_replications(config, ALGORITHMS, workers=3, **kwargs)
        _assert_identical_observations(serial, parallel)

    def test_shared_memory_path_matches_unshared_topology_reuse(self):
        # Serial share_topology reuses the model in-process (no shm); the shm
        # dispatch path must agree with it bit-for-bit.
        config = make_small_config(num_clients=40, num_zones=4)
        kwargs = dict(num_runs=3, seed=1, share_topology=True, keep_observations=True)
        a = run_replications(config, ["grez-grec"], workers=2, **kwargs)
        b = run_replications(config, ["grez-grec"], workers=3, **kwargs)
        _assert_identical_observations(a, b)

    def test_task_payload_o1_in_delay_matrix(self):
        config = make_small_config()
        model = DelayModel(generate_topology(config.topology, seed=0))
        rtt_bytes = model.rtt.nbytes  # materialise before measuring

        def task_bytes():
            point = dict(
                config=config,
                algorithms=("grez-grec",),
                estimator=None,
                delay_bound_ms=None,
                collect_delays=False,
                topology=model.topology,
                delay_model=model,
            )
            return len(pickle.dumps(point))

        plain = task_bytes()
        model.share_rtt()
        try:
            shared = task_bytes()
        finally:
            model.unshare_rtt()

        # Without shm the task ships the whole matrix; with shm it ships a
        # named handle — the matrix contributes nothing to the payload.
        assert plain - shared > 0.9 * rtt_bytes
        assert shared < rtt_bytes / 4
        # Releasing shared memory restores the plain pickling path.
        assert task_bytes() == plain


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
