"""Process-parallel execution layer for independent replications.

The replication engines in :mod:`repro.experiments` fan independent
simulation runs out over worker processes through the executor abstraction
defined here:

* :func:`resolve_workers` turns the user-facing ``workers`` knob (``None``,
  ``0`` = all cores, or an explicit count) into a concrete worker count,
  never exceeding the number of tasks;
* :func:`default_chunksize` picks a ``chunksize`` for ``Executor.map`` that
  balances scheduling overhead against load-balancing granularity;
* :class:`Executor` wraps one process pool behind an ordered-map API,
  creating the pool lazily and keeping it alive across calls;
* :func:`shared_executor` hands out process-wide executors keyed by worker
  count so an experiment run pays pool start-up once, not once per
  ``ordered_map`` invocation;
* :func:`ordered_map` maps serially in-process for one worker and dispatches
  through the shared executors otherwise.

Worker failures never surface as bare remote tracebacks: every parallel task
is index-wrapped, and a failure re-raises as :class:`WorkerTaskError` carrying
the failing task index and a serial-repro hint, chained to the original
exception.

The serial path never imports the parallel runtime: ``concurrent.futures``
(and the ``multiprocessing`` machinery its process pool pulls in) loads on
first parallel use, inside :meth:`Executor.ordered_map`, so serial runs do
not pay for it.

Determinism is the caller's contract: each task must carry its own
pre-spawned RNG state (see :func:`repro.utils.rng.spawn_generators`), so the
result of a task never depends on which worker runs it or in which order.
"""

from __future__ import annotations

import atexit
import os
import threading
from functools import partial
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, TypeVar

__all__ = [
    "available_cpus",
    "resolve_workers",
    "default_chunksize",
    "WorkerTaskError",
    "Executor",
    "shared_executor",
    "shutdown_shared_executors",
    "ordered_map",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def available_cpus() -> int:
    """Number of CPUs usable by this process (affinity-aware when possible)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int], num_tasks: Optional[int] = None) -> int:
    """Resolve the ``workers`` knob into a concrete worker count.

    Parameters
    ----------
    workers:
        ``None`` or ``1`` — run serially (in-process); ``0`` — use every
        available CPU; any other positive integer — use exactly that many
        workers.  Negative values are rejected.
    num_tasks:
        When given, the result is additionally capped at ``num_tasks`` so a
        two-run experiment never pays for a 16-process pool.
    """
    if workers is None:
        resolved = 1
    elif workers == 0:
        resolved = available_cpus()
    elif workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = all CPUs), got {workers}")
    else:
        resolved = int(workers)
    if num_tasks is not None:
        resolved = min(resolved, max(1, int(num_tasks)))
    return max(1, resolved)


def default_chunksize(num_tasks: int, workers: int) -> int:
    """Chunk size for ``Executor.map``: ~4 chunks per worker, at least 1.

    Small chunks keep the pool load-balanced when task durations vary (e.g.
    the MILP baseline on an unlucky instance); one giant chunk per worker
    would serialise the stragglers.
    """
    if num_tasks <= 0 or workers <= 0:
        return 1
    return max(1, num_tasks // (workers * 4))


class WorkerTaskError(RuntimeError):
    """A parallel ``ordered_map`` task failed.

    Carries the zero-based index of the failing task (``task_index``) and the
    original exception (``original``, also chained as ``__cause__``) so a
    failure inside a worker is attributable without spelunking through remote
    tracebacks.
    """

    def __init__(self, task_index: int, original: BaseException):
        super().__init__(
            f"parallel task {task_index} failed with "
            f"{type(original).__name__}: {original} "
            f"(hint: re-run with workers=1 to reproduce serially with a local traceback)"
        )
        self.task_index = task_index
        self.original = original


class _TaskFailure(Exception):
    """Internal, picklable wrapper a worker raises around a task exception."""

    def __init__(self, index: int, original: BaseException):
        # args=(index, original) keeps default Exception pickling working.
        super().__init__(index, original)
        self.index = index
        self.original = original


def _run_indexed(fn: Callable[[_T], _R], indexed_task: Tuple[int, _T]) -> _R:
    index, task = indexed_task
    try:
        return fn(task)
    except Exception as exc:
        raise _TaskFailure(index, exc) from exc


class Executor:
    """An ordered map over a lazily created, reusable process pool.

    Tasks, ``fn`` and results must pickle.  The underlying
    :class:`ProcessPoolExecutor` is created on first parallel use and kept
    alive until :meth:`shutdown`, so repeated ``ordered_map`` calls amortise
    pool start-up.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self._pool: Optional[object] = None
        self._lock = threading.Lock()

    def _get_pool(self):
        with self._lock:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def ordered_map(
        self,
        fn: Callable[[_T], _R],
        tasks: Sequence[_T],
    ) -> Iterator[_R]:
        """Apply ``fn`` to every task, yielding results in task order.

        Tasks go out in :func:`default_chunksize` chunks.  One worker (or a single task) uses a plain ``map`` with no wrapping,
        so the serial path is byte-for-byte the code path the parallel path
        executes inside each worker.  Parallel failures raise
        :class:`WorkerTaskError` with the failing task index.
        """
        tasks = list(tasks)
        if self.workers <= 1 or len(tasks) <= 1:
            yield from map(fn, tasks)
            return
        from concurrent.futures.process import BrokenProcessPool

        chunksize = default_chunksize(len(tasks), min(self.workers, len(tasks)))
        pool = self._get_pool()
        results = pool.map(partial(_run_indexed, fn), enumerate(tasks), chunksize=chunksize)
        while True:
            try:
                result = next(results)
            except StopIteration:
                return
            except _TaskFailure as failure:
                raise WorkerTaskError(failure.index, failure.original) from failure.original
            except BrokenProcessPool:
                # A dead worker poisons the pool; drop it so the next call
                # starts from a fresh one instead of failing forever.
                self.shutdown()
                raise
            yield result

    def shutdown(self) -> None:
        """Tear down the underlying pool (a later call recreates it)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


_SHARED_LOCK = threading.Lock()
_SHARED: Dict[int, Executor] = {}


def shared_executor(workers: Optional[int] = None) -> Executor:
    """Process-wide reusable executor for a resolved worker count.

    The first request for a given count creates the :class:`Executor`; later
    requests return the same instance, so one experiment run reuses one pool
    across every ``ordered_map`` call instead of paying fork/spawn start-up
    per invocation.  Pools are torn down at interpreter exit (or explicitly
    via :func:`shutdown_shared_executors`).
    """
    resolved = resolve_workers(workers)
    with _SHARED_LOCK:
        executor = _SHARED.get(resolved)
        if executor is None:
            executor = Executor(resolved)
            _SHARED[resolved] = executor
        return executor


def shutdown_shared_executors() -> None:
    """Shut down every shared pool (used by tests and the atexit hook)."""
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for executor in executors:
        executor.shutdown()


atexit.register(shutdown_shared_executors)


def ordered_map(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    workers: Optional[int] = None,
) -> Iterator[_R]:
    """Apply ``fn`` to every task, yielding results in task order.

    With one (resolved) worker this is a plain in-process ``map`` — no
    pickling, no subprocesses.  With more workers the tasks are distributed
    over the shared :class:`Executor`, whose pool persists across calls;
    ``fn`` and each task must be picklable, and results stream back in order.
    A task that raises inside a worker re-raises here as
    :class:`WorkerTaskError` with the failing task index.
    """
    tasks = list(tasks)
    resolved = resolve_workers(workers, num_tasks=len(tasks))
    if resolved <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    yield from shared_executor(resolved).ordered_map(fn, tasks)
