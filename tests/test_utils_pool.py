"""Tests for repro.utils.pool — worker resolution, ordered mapping and the
process pool kept per worker count."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.utils import pool as pool_module
from repro.utils.pool import WorkerTaskError, available_cpus, ordered_map, resolve_workers


def _square(x: int) -> int:
    """Module-level so it is picklable by the process pool."""
    return x * x


def _fail_on_three(x: int) -> int:
    """Module-level failing task fn (picklable)."""
    if x == 3:
        raise ValueError("task three exploded")
    return x * x


def _fail_on_forty(x: int) -> int:
    if x == 40:
        raise KeyError("task forty")
    return x


def _identity(x):
    return x


def _sleep_then_return(x: int) -> int:
    # Early tasks sleep longest, so later tasks finish first.
    time.sleep(0.02 * (5 - x))
    return x


class _RecordingPool:
    """Stands in for a process pool: maps in-process, recording each chunk size."""

    def __init__(self):
        self.chunksizes = []

    def map(self, fn, iterable, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, iterable)

    def shutdown(self, wait=True):
        pass


@pytest.fixture
def pools():
    """The module's pools by worker count, shut down after the test."""
    pool_module._shutdown_pools()
    yield pool_module._POOLS
    pool_module._shutdown_pools()


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_workers(0) == available_cpus()

    def test_explicit_count(self):
        assert resolve_workers(3) == 3

    def test_capped_by_num_tasks(self):
        assert resolve_workers(8, num_tasks=2) == 2
        assert resolve_workers(8, num_tasks=100) == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_at_least_one(self):
        assert resolve_workers(0, num_tasks=0) == 1


class TestDefaultChunksize:
    """``ordered_map`` sends about four chunks to each worker, never empty ones."""

    def test_at_least_one(self, pools):
        pools[2] = recording = _RecordingPool()
        assert list(ordered_map(_square, range(3), workers=2)) == [0, 1, 4]
        assert list(ordered_map(_square, range(0), workers=2)) == []
        assert recording.chunksizes == [1]  # no tasks, no dispatch

    def test_roughly_four_chunks_per_worker(self, pools):
        pools[4] = four = _RecordingPool()
        pools[2] = two = _RecordingPool()
        assert list(ordered_map(_square, range(64), workers=4)) == [x * x for x in range(64)]
        assert list(ordered_map(_square, range(64), workers=2)) == [x * x for x in range(64)]
        assert four.chunksizes == [4] and two.chunksizes == [8]


class TestOrderedMap:
    def test_serial_preserves_order(self):
        assert list(ordered_map(_square, range(10))) == [x * x for x in range(10)]

    def test_parallel_preserves_order(self):
        assert list(ordered_map(_square, range(10), workers=3)) == [x * x for x in range(10)]

    def test_parallel_matches_serial(self):
        serial = list(ordered_map(_square, range(25)))
        parallel = list(ordered_map(_square, range(25), workers=4))
        assert serial == parallel

    def test_empty(self):
        assert list(ordered_map(_square, [], workers=4)) == []

    def test_single_task_stays_in_process(self):
        # A lambda cannot pickle, so this passes only if no worker is used.
        assert list(ordered_map(lambda x: x * x, [7], workers=4)) == [49]

    def test_serial_failure_raises_plain_exception(self):
        # No wrapping on the serial path: the original exception propagates.
        with pytest.raises(ValueError, match="task three exploded"):
            list(ordered_map(_fail_on_three, range(6)))

    def test_multi_task_chunks_keep_order(self):
        # 64 tasks over 2 workers go out in chunks of 8 tasks each.
        assert list(ordered_map(_square, range(64), workers=2)) == [x * x for x in range(64)]

    def test_tasks_pickled_as_they_are(self):
        tasks = [np.arange(5, dtype=dtype) for dtype in (np.int32, np.float64, np.uint8)]
        results = list(ordered_map(_identity, tasks, workers=2))
        for task, result in zip(tasks, results):
            assert result.dtype == task.dtype
            np.testing.assert_array_equal(result, task)

    def test_order_kept_when_later_tasks_finish_first(self):
        assert list(ordered_map(_sleep_then_return, range(6), workers=3)) == list(range(6))

    def test_accepts_any_iterable(self):
        tasks = (x for x in range(6))
        assert list(ordered_map(_square, tasks, workers=2)) == [x * x for x in range(6)]

    def test_workers_capped_by_task_count(self, pools):
        assert list(ordered_map(_square, range(2), workers=8)) == [0, 1]
        # The two tasks were dispatched to a two-worker pool.
        assert list(pools) == [2]


class TestWorkerTaskError:
    """Satellite bugfix: worker failures carry the task index + repro hint."""

    def test_failure_reports_task_index_and_hint(self):
        with pytest.raises(WorkerTaskError) as excinfo:
            list(ordered_map(_fail_on_three, range(6), workers=2))
        err = excinfo.value
        assert err.task_index == 3
        assert isinstance(err.original, ValueError)
        assert isinstance(err.__cause__, ValueError)
        assert "task 3" in str(err)
        assert "workers=1" in str(err)  # the serial-repro hint

    def test_failure_message_carries_original_text(self):
        with pytest.raises(WorkerTaskError, match="task three exploded"):
            list(ordered_map(_fail_on_three, range(6), workers=2))

    def test_failure_index_past_the_first_chunk(self):
        # 64 tasks over 2 workers go out in chunks of 8: task 40 is in chunk 5.
        with pytest.raises(WorkerTaskError) as excinfo:
            list(ordered_map(_fail_on_forty, range(64), workers=2))
        assert excinfo.value.task_index == 40
        assert isinstance(excinfo.value.original, KeyError)

    def test_worker_side_failure_pickles_with_its_index(self):
        # A worker ships its failure back to the parent by pickling it.
        failure = pickle.loads(pickle.dumps(pool_module._TaskFailure(7, ValueError("boom"))))
        assert failure.index == 7
        assert isinstance(failure.original, ValueError) and str(failure.original) == "boom"

    def test_task_failure_leaves_pool_usable(self, pools):
        # Unlike a dead worker, a task exception does not poison the pool.
        with pytest.raises(WorkerTaskError):
            list(ordered_map(_fail_on_three, range(6), workers=2))
        pool = pools[2]
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
        assert pools[2] is pool


class TestPools:
    def test_one_worker_starts_no_pool(self, pools):
        assert list(ordered_map(_square, range(5), workers=1)) == [x * x for x in range(5)]
        assert not pools

    def test_pool_created_on_first_parallel_result(self, pools):
        results = ordered_map(_square, range(4), workers=2)
        assert not pools  # a generator: nothing runs until iterated
        assert list(results) == [0, 1, 4, 9]
        assert list(pools) == [2]

    def test_pool_reused_per_worker_count(self, pools):
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
        pool = pools[2]
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
        assert pools[2] is pool  # reused, not recreated
        assert list(ordered_map(_square, range(6), workers=3)) == [x * x for x in range(6)]
        assert sorted(pools) == [2, 3] and pools[2] is pool

    def test_pools_keyed_by_resolved_count(self, pools):
        workers = min(available_cpus(), 4)
        tasks = range(workers)
        assert list(ordered_map(_square, tasks, workers=0)) == [x * x for x in tasks]
        assert list(pools) == ([workers] if workers > 1 else [])

    def test_explicit_count_starts_exactly_that_many_workers(self, pools):
        assert list(ordered_map(_square, range(6), workers=3)) == [x * x for x in range(6)]
        assert list(pools) == [3]
        assert pools[3]._max_workers == 3

    def test_concurrent_first_use_creates_one_pool(self, pools):
        barrier = threading.Barrier(4)
        seen = []

        def first_use():
            barrier.wait()
            seen.append(pool_module._pool(2))

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 4 and all(pool is seen[0] for pool in seen)
        assert pools[2] is seen[0]

    def test_abandoned_map_leaves_pool_usable(self, pools):
        results = ordered_map(_square, range(16), workers=2)
        assert next(results) == 0
        pool = pools[2]
        results.close()
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
        assert pools[2] is pool

    def test_pools_shut_down_at_exit(self):
        # The atexit hook shuts every pool down, so the interpreter exits
        # cleanly after a parallel map without an explicit shutdown.
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        source = (
            "from operator import neg\n"
            "from repro.utils import pool\n"
            "assert list(pool.ordered_map(neg, range(4), workers=2)) == [0, -1, -2, -3]\n"
            "assert list(pool._POOLS) == [2]\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    def test_shutdown_resets_and_pool_recreated(self, pools):
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
        first = pools[2]
        pool_module._shutdown_pools()
        pool_module._shutdown_pools()
        assert not pools
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
        assert pools[2] is not first

    def test_dead_worker_raises_broken_pool_and_drops_it(self, pools):
        # The parallel runtime is imported on first use; the except clause
        # that catches a dead worker must see the name bound.
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            list(ordered_map(os._exit, [3, 3], workers=2))
        assert not pools  # a fresh pool replaces the broken one
        assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]

    def test_dead_worker_drops_only_its_own_pool(self, pools):
        from concurrent.futures.process import BrokenProcessPool

        assert list(ordered_map(_square, range(3), workers=3)) == [0, 1, 4]
        three = pools[3]
        with pytest.raises(BrokenProcessPool):
            list(ordered_map(os._exit, [3, 3], workers=2))
        assert list(pools) == [3] and pools[3] is three
        assert list(ordered_map(_square, range(3), workers=3)) == [0, 1, 4]
