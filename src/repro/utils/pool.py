"""Process-parallel execution layer for independent replications.

The replication engines in :mod:`repro.experiments` fan independent
simulation runs out over worker processes through one call:

* :func:`resolve_workers` turns the user-facing ``workers`` knob (``None``,
  ``0`` = all cores, or an explicit count) into a concrete worker count,
  never exceeding the number of tasks;
* :func:`ordered_map` maps serially in-process for one worker and otherwise
  pickles the tasks, in chunks, to a process pool kept per worker count.

Worker failures never surface as bare remote tracebacks: every parallel task
is index-wrapped, and a failure re-raises as :class:`WorkerTaskError` carrying
the failing task index and a serial-repro hint, chained to the original
exception.

The serial path never imports the parallel runtime: ``concurrent.futures``
(and the ``multiprocessing`` machinery its process pool pulls in) loads on
first parallel use, inside :func:`ordered_map`, so serial runs do not pay
for it.

Determinism is the caller's contract: each task must carry its own
pre-spawned RNG state (see :func:`repro.utils.rng.spawn_generators`), so the
result of a task never depends on which worker runs it or in which order.
"""

from __future__ import annotations

import atexit
import os
import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Sequence, Tuple, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "available_cpus",
    "resolve_workers",
    "WorkerTaskError",
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


_POOLS_LOCK = threading.Lock()
#: One process pool per resolved worker count, created on first parallel use
#: and kept for the life of the process, so an experiment run pays pool
#: start-up once, not once per :func:`ordered_map` call.
_POOLS: Dict[int, "ProcessPoolExecutor"] = {}


def _pool(workers: int) -> "ProcessPoolExecutor":
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            from concurrent.futures import ProcessPoolExecutor

            pool = _POOLS[workers] = ProcessPoolExecutor(max_workers=workers)
        return pool


@atexit.register
def _shutdown_pools() -> None:
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def ordered_map(
    fn: Callable[[_T], _R],
    tasks: Sequence[_T],
    workers: Optional[int] = None,
) -> Iterator[_R]:
    """Apply ``fn`` to every task, yielding results in task order.

    With one (resolved) worker, or a single task, this is a plain in-process
    ``map``: no pickling, no subprocesses, and the same code each worker
    runs.  With more workers the tasks go, pickled as they are, to the
    process pool kept for that worker count, in chunks of about a quarter of
    each worker's share: small chunks keep the pool balanced when task
    durations vary (the MILP baseline on an unlucky instance), where one
    chunk per worker would serialise the stragglers.  ``fn`` and each task
    must pickle, and results stream back in order.  A task that raises
    inside a worker re-raises here as :class:`WorkerTaskError` with the
    failing task index; a dead worker raises ``BrokenProcessPool`` and drops
    the pool, so the next call starts a fresh one.
    """
    tasks = list(tasks)
    resolved = resolve_workers(workers, num_tasks=len(tasks))
    if resolved <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures.process import BrokenProcessPool

    pool = _pool(resolved)
    chunksize = max(1, len(tasks) // (resolved * 4))
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
            with _POOLS_LOCK:
                if _POOLS.get(resolved) is pool:
                    del _POOLS[resolved]
            pool.shutdown(wait=True)
            raise
        yield result
