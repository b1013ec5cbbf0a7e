"""Tests for repro.utils.pool — worker resolution, the executor layer and
ordered mapping over serial / thread / process backends."""

from __future__ import annotations

import os

import pytest

from repro.utils.pool import (
    EXECUTOR_KINDS,
    Executor,
    WorkerTaskError,
    available_cpus,
    default_chunksize,
    ordered_map,
    resolve_workers,
    run_ordered,
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
        serial = run_ordered(_square, range(25))
        parallel = run_ordered(_square, range(25), workers=4)
        assert serial == parallel

    def test_empty(self):
        assert run_ordered(_square, [], workers=4) == []

    def test_single_task_stays_in_process(self):
        assert run_ordered(_square, [7], workers=4) == [49]

    def test_thread_kind_matches_serial(self):
        serial = run_ordered(_square, range(25))
        threaded = run_ordered(_square, range(25), workers=4, kind="thread")
        assert serial == threaded

    def test_serial_failure_raises_plain_exception(self):
        # No wrapping on the serial path: the original exception propagates.
        with pytest.raises(ValueError, match="task three exploded"):
            run_ordered(_fail_on_three, range(6))


class TestWorkerTaskError:
    """Satellite bugfix: worker failures carry the task index + repro hint."""

    @pytest.mark.parametrize("kind", ["process", "thread"])
    def test_failure_reports_task_index_and_hint(self, kind):
        with pytest.raises(WorkerTaskError) as excinfo:
            run_ordered(_fail_on_three, range(6), workers=2, kind=kind)
        err = excinfo.value
        assert err.task_index == 3
        assert isinstance(err.original, ValueError)
        assert isinstance(err.__cause__, ValueError)
        assert "task 3" in str(err)
        assert "workers=1" in str(err)  # the serial-repro hint

    def test_failure_message_carries_original_text(self):
        with pytest.raises(WorkerTaskError, match="task three exploded"):
            run_ordered(_fail_on_three, range(6), workers=2)


class TestExecutor:
    def test_kinds(self):
        assert set(EXECUTOR_KINDS) == {"serial", "thread", "process"}
        with pytest.raises(ValueError):
            Executor("fiber")
        with pytest.raises(ValueError):
            shared_executor("fiber")

    def test_serial_executor_maps_in_process(self):
        ex = Executor("serial")
        assert ex.run_ordered(_square, range(5)) == [x * x for x in range(5)]
        ex.shutdown()  # no-op

    def test_thread_executor_unpicklable_fn_ok(self):
        # Thread backend needs no pickling — closures are fine.
        ex = Executor("thread", workers=3)
        try:
            doubled = ex.run_ordered(lambda x: x * 2, range(7))
            assert doubled == [x * 2 for x in range(7)]
        finally:
            ex.shutdown()

    def test_pool_survives_across_calls(self):
        ex = Executor("thread", workers=2)
        try:
            assert ex.run_ordered(_square, range(4)) == [0, 1, 4, 9]
            pool = ex._pool
            assert pool is not None
            assert ex.run_ordered(_square, range(4)) == [0, 1, 4, 9]
            assert ex._pool is pool  # reused, not recreated
        finally:
            ex.shutdown()
        assert ex._pool is None

    def test_dead_worker_raises_broken_pool_and_drops_it(self):
        # The parallel runtime is imported on first use; the except clause
        # that catches a dead worker must see the name bound.
        from concurrent.futures.process import BrokenProcessPool

        ex = Executor("process", workers=2)
        try:
            with pytest.raises(BrokenProcessPool):
                ex.run_ordered(os._exit, [3, 3])
            assert ex._pool is None  # a fresh pool replaces the broken one
            assert ex.run_ordered(_square, range(4)) == [0, 1, 4, 9]
        finally:
            ex.shutdown()

    def test_shared_executor_reuse_by_key(self):
        try:
            a = shared_executor("thread", 2)
            b = shared_executor("thread", 2)
            c = shared_executor("thread", 3)
            assert a is b
            assert a is not c
        finally:
            shutdown_shared_executors()

    def test_shared_serial_is_stateless(self):
        assert shared_executor("serial").kind == "serial"

    def test_shutdown_shared_executors_resets_registry(self):
        first = shared_executor("thread", 2)
        shutdown_shared_executors()
        assert shared_executor("thread", 2) is not first
        shutdown_shared_executors()
