"""O(1)-picklable shared-memory handles for large frozen arrays.

``run_replications`` ships every task to worker processes by pickling, and
the dominant payload by far is the all-pairs RTT matrix — O(nodes²) floats
that ``share_topology`` deliberately keeps as a *single* object in-process.
:class:`SharedArray` restores that sharing across process boundaries: the
creator copies the array once into a POSIX shared-memory segment, the pickled
form is just ``(name, shape, dtype)`` — O(1) in the data — and each worker
process attaches the segment on first unpickle and rehydrates a read-only
NumPy view, bit-identical to what a full pickle round-trip would have
produced.

Lifecycle
---------
The creating process owns the segment: call :meth:`SharedArray.release` once
every consumer has been dispatched and drained.  POSIX keeps existing
mappings valid after an unlink, so workers that already attached are
unaffected; attachments are cached per process (keyed by segment name) for
the life of the process, which both avoids re-mapping per task and keeps the
mapping alive for any outstanding array views.

``multiprocessing.shared_memory`` is imported on first use — when a segment
is created or attached — so importing this module (every ``import repro``
does) costs serial runs nothing.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

__all__ = ["SharedArray"]

_ATTACH_LOCK = threading.Lock()
_ATTACHED: Dict[str, "SharedArray"] = {}


def _attach_untracked(name: str) -> SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On 3.10–3.12 ``SharedMemory(name=...)`` registers the segment as if the
    attacher owned it (bpo-38119), so the tracker would unlink it out from
    under the creator — and later double-unregisters print KeyError noise at
    exit.  3.13 grew ``track=False`` for exactly this; for older versions we
    suppress ``register`` for shared_memory during the attach (we hold
    ``_ATTACH_LOCK``, so the patch window is serialised).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _register_skipping_shm(rname, rtype):
            if rtype != "shared_memory":  # pragma: no cover - nothing else registers here
                original(rname, rtype)

        resource_tracker.register = _register_skipping_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedArray:
    """A frozen ndarray in shared memory whose pickled form is O(1).

    Construct with the source array (copied once into a fresh segment);
    ``pickle.dumps(shared)`` then costs bytes proportional to the segment
    *name*, not the data.  Unpickling in any process attaches the same
    segment and :meth:`as_array` returns a read-only view of the original
    values.
    """

    def __init__(self, array: np.ndarray):
        from multiprocessing import shared_memory

        array = np.ascontiguousarray(array)
        self.shape: Tuple[int, ...] = tuple(array.shape)
        self.dtype: str = np.dtype(array.dtype).str
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self._owner = True
        view = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)
        view[...] = array

    @property
    def name(self) -> str:
        return self._shm.name

    def as_array(self) -> np.ndarray:
        """Read-only ndarray view over the shared segment (no copy)."""
        out = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)
        out.flags.writeable = False
        return out

    def release(self) -> None:
        """Close this handle; the owner additionally unlinks the segment.

        Only call when no views from :meth:`as_array` are live in *this*
        process — closing invalidates their buffer.  Workers never call this:
        their attachments live in the process-wide cache until exit.
        """
        try:
            self._shm.close()
        finally:
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __reduce__(self):
        return (_attach, (self.name, self.shape, self.dtype))


def _attach(name: str, shape: Tuple[int, ...], dtype: str) -> "SharedArray":
    """Attach (or re-use this process's cached attachment of) a segment."""
    with _ATTACH_LOCK:
        handle = _ATTACHED.get(name)
        if handle is not None and (handle.shape != tuple(shape) or handle.dtype != dtype):
            handle = None  # stale cache entry from a recycled segment name
        if handle is None:
            shm = _attach_untracked(name)
            handle = SharedArray.__new__(SharedArray)
            handle.shape = tuple(shape)
            handle.dtype = dtype
            handle._shm = shm
            handle._owner = False
            _ATTACHED[name] = handle
    return handle
