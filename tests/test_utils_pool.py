"""Tests for repro.utils.pool — worker resolution, the process executor layer
and ordered mapping."""

from __future__ import annotations

import os

import pytest

from repro.utils.pool import (
    Executor,
    WorkerTaskError,
    available_cpus,
    default_chunksize,
    ordered_map,
    resolve_workers,
    shared_executor,
    shutdown_shared_executors,
)


def _square(x: int) -> int:
    """Module-level so it is picklable by the process pool."""
    return x * x


def _fail_on_three(x: int) -> int:
    """Module-level failing task fn (picklable)."""
    if x == 3:
        raise ValueError("task three exploded")
    return x * x


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
    def test_at_least_one(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(3, 4) == 1

    def test_roughly_four_chunks_per_worker(self):
        assert default_chunksize(64, 4) == 4


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

    def test_multi_task_default_chunks_keep_order(self):
        # 64 tasks over 2 workers go out in default chunks of 8 tasks each.
        assert default_chunksize(64, 2) == 8
        assert list(ordered_map(_square, range(64), workers=2)) == [x * x for x in range(64)]

    def test_accepts_any_iterable(self):
        tasks = (x for x in range(6))
        assert list(ordered_map(_square, tasks, workers=2)) == [x * x for x in range(6)]

    def test_workers_capped_by_task_count(self):
        try:
            assert list(ordered_map(_square, range(2), workers=8)) == [0, 1]
            # The two tasks were dispatched to a two-worker shared pool.
            assert shared_executor(2)._pool is not None
            assert shared_executor(8)._pool is None
        finally:
            shutdown_shared_executors()


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

    def test_task_failure_leaves_pool_usable(self):
        # Unlike a dead worker, a task exception does not poison the pool.
        ex = Executor(workers=2)
        try:
            with pytest.raises(WorkerTaskError):
                list(ex.ordered_map(_fail_on_three, range(6)))
            pool = ex._pool
            assert pool is not None
            assert list(ex.ordered_map(_square, range(4))) == [0, 1, 4, 9]
            assert ex._pool is pool
        finally:
            ex.shutdown()


class TestExecutor:
    def test_one_worker_maps_in_process(self):
        ex = Executor(workers=1)
        assert list(ex.ordered_map(lambda x: x * 2, range(5))) == [x * 2 for x in range(5)]
        assert ex._pool is None
        ex.shutdown()  # no-op

    def test_workers_resolved_at_construction(self):
        assert Executor().workers == 1
        assert Executor(workers=0).workers == available_cpus()
        assert Executor(workers=3).workers == 3
        with pytest.raises(ValueError):
            Executor(workers=-1)

    def test_pool_created_on_first_parallel_result(self):
        ex = Executor(workers=2)
        try:
            results = ex.ordered_map(_square, range(4))
            assert ex._pool is None  # a generator: nothing runs until iterated
            assert list(results) == [0, 1, 4, 9]
            assert ex._pool is not None
        finally:
            ex.shutdown()

    def test_shutdown_is_idempotent_and_pool_recreated(self):
        ex = Executor(workers=2)
        try:
            assert list(ex.ordered_map(_square, range(4))) == [0, 1, 4, 9]
            first = ex._pool
            ex.shutdown()
            ex.shutdown()
            assert ex._pool is None
            assert list(ex.ordered_map(_square, range(4))) == [0, 1, 4, 9]
            assert ex._pool is not None and ex._pool is not first
        finally:
            ex.shutdown()

    def test_pool_survives_across_calls(self):
        ex = Executor(workers=2)
        try:
            assert list(ex.ordered_map(_square, range(4))) == [0, 1, 4, 9]
            pool = ex._pool
            assert pool is not None
            assert list(ex.ordered_map(_square, range(4))) == [0, 1, 4, 9]
            assert ex._pool is pool  # reused, not recreated
        finally:
            ex.shutdown()
        assert ex._pool is None

    def test_dead_worker_raises_broken_pool_and_drops_it(self):
        # The parallel runtime is imported on first use; the except clause
        # that catches a dead worker must see the name bound.
        from concurrent.futures.process import BrokenProcessPool

        ex = Executor(workers=2)
        try:
            with pytest.raises(BrokenProcessPool):
                list(ex.ordered_map(os._exit, [3, 3]))
            assert ex._pool is None  # a fresh pool replaces the broken one
            assert list(ex.ordered_map(_square, range(4))) == [0, 1, 4, 9]
        finally:
            ex.shutdown()

    def test_shared_executor_reuse_by_key(self):
        try:
            a = shared_executor(2)
            b = shared_executor(2)
            c = shared_executor(3)
            assert a is b
            assert a is not c
            # The pool behind a shared executor is reused across ordered maps.
            assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
            pool = a._pool
            assert pool is not None
            assert list(ordered_map(_square, range(4), workers=2)) == [0, 1, 4, 9]
            assert a._pool is pool
        finally:
            shutdown_shared_executors()

    def test_shared_executor_keyed_by_resolved_count(self):
        try:
            assert shared_executor(None) is shared_executor(1)
            assert shared_executor(0) is shared_executor(available_cpus())
            assert shared_executor(0).workers == available_cpus()
        finally:
            shutdown_shared_executors()

    def test_shutdown_shared_executors_resets_registry(self):
        first = shared_executor(2)
        shutdown_shared_executors()
        assert shared_executor(2) is not first
        shutdown_shared_executors()
