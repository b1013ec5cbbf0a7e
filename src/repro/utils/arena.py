"""Typed scratch arena for per-epoch buffer reuse.

The steady-state cost of a long churn simulation is dominated by *fixed*
per-epoch overhead, and a surprising share of that is allocator traffic: every
epoch used to allocate a fresh client×server delay matrix, fresh population
arrays, fresh repair work arrays — hundreds of kilobytes that live for exactly
one epoch and then go back to the allocator (large blocks round-trip through
``mmap``/``munmap``, paying page faults on every touch).  :class:`EpochArena`
turns those into reusable buffers with two complementary APIs:

* :meth:`acquire` / :meth:`release` — checked-out buffers, pooled by dtype and
  size class (:func:`_capacity_for`).  A buffer acquired from the arena is
  *live* until released; the arena never hands out memory overlapping a live
  buffer, so any interleaving of acquires and releases is alias-free
  (property-tested).  This is the API
  for buffers with hand-off lifetimes, e.g. the dense delay matrix that one
  epoch produces and the next epoch consumes (double-buffering: the new
  epoch's matrix is acquired while the previous one is still live, and the
  previous one is released once the state has advanced past it).
* :meth:`scratch` — named persistent buffers with geometric growth (the
  engine's carried-contacts array is one).  A scratch buffer has a *single
  borrower*: the value is only valid until the next
  ``scratch`` call with the same key, which is exactly the lifetime of a
  transient work array inside one epoch phase.

The arena is deliberately **not** thread-safe: each
:class:`~repro.dynamics.engine.EpochSession` owns one arena, and federated
shards step on distinct sessions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = ["EpochArena"]


def _capacity_for(n: int) -> int:
    """Pool bucket capacity: ``n`` rounded up to its size class (min 16).

    A class is a multiple of ``2**max(4, n.bit_length() - 4)``: eight
    classes per power of two, so a bucket's slack is under 16 slots or an
    eighth of the request, where the next power of two can waste half.  The
    power of two is a multiple of that step, so no class exceeds it.
    """
    step = 1 << max(4, n.bit_length() - 4)
    return max(16, -(-n // step) * step)


class EpochArena:
    """Reusable ndarray buffers, pooled by dtype and capacity.

    See the module docstring for the two lifetime models.  Counters
    (:meth:`stats`) make allocation behaviour observable: at steady state a
    hot loop should show ``reuses`` climbing while ``allocated_bytes`` stays
    flat.
    """

    def __init__(self) -> None:
        # (dtype.str, capacity) -> stack of free flat base arrays.
        self._free: Dict[Tuple[str, int], List[np.ndarray]] = {}
        # id(view) -> (view, base, pool key) for every live acquired buffer.
        self._live: Dict[int, Tuple[np.ndarray, np.ndarray, Tuple[str, int]]] = {}
        # name -> persistent geometric scratch base array.
        self._scratch: Dict[object, np.ndarray] = {}
        self._arange: np.ndarray = np.empty(0, dtype=np.int64)
        self.acquires = 0
        self.reuses = 0
        self.allocated_bytes = 0

    # ------------------------------------------------------------------ #
    # Checked-out buffers
    # ------------------------------------------------------------------ #
    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """A buffer of exactly ``shape``/``dtype``, reused from the pool.

        The returned array is a view over a pooled flat block; it stays
        *live* (never handed out again, never overlapping another live
        buffer) until passed to :meth:`release`.  Contents are undefined, as
        with :func:`numpy.empty`.
        """
        if type(shape) is int:
            n = shape
            shape = (n,)
        else:
            shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
            n = 1
            for s in shape:
                n *= s
        dtype = np.dtype(dtype)
        key = (dtype.str, _capacity_for(n))
        stack = self._free.get(key)
        if stack:
            base = stack.pop()
            self.reuses += 1
        else:
            base = np.empty(key[1], dtype=dtype)
            self.allocated_bytes += base.nbytes
        self.acquires += 1
        view = base[:n].reshape(shape)
        self._live[id(view)] = (view, base, key)
        return view

    def release(self, array: np.ndarray) -> None:
        """Return a live acquired buffer to the pool.

        Raises ``ValueError`` for anything that is not currently live (double
        release, foreign array) — silent misuse here would alias two "live"
        buffers, which is exactly the bug class the arena exists to prevent.
        """
        entry = self._live.get(id(array))
        if entry is None or entry[0] is not array:
            raise ValueError("release() of an array that is not a live arena buffer")
        del self._live[id(array)]
        _, base, key = entry
        self._free.setdefault(key, []).append(base)

    def owns(self, array: np.ndarray) -> bool:
        """True when ``array`` is a live buffer acquired from this arena."""
        entry = self._live.get(id(array))
        return entry is not None and entry[0] is array

    def release_if_owned(self, array) -> bool:
        """Release ``array`` when it is a live arena buffer; no-op otherwise.

        Convenience for hand-off sites where a buffer may equally be
        arena-acquired (steady state) or externally owned (the caller's
        initial snapshot, an array allocated elsewhere): only arena-owned
        buffers are recycled.  Returns whether a release happened.
        """
        if isinstance(array, np.ndarray) and self.owns(array):
            self.release(array)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Named persistent scratch
    # ------------------------------------------------------------------ #
    def scratch(self, key, size: int, dtype=np.int64) -> np.ndarray:
        """A 1-D scratch view of length ``size`` under a persistent name.

        Grows geometrically and is recycled across epochs; **single
        borrower** — the contents are only valid until the next ``scratch``
        call with the same key.  Distinct keys never alias (each key owns its
        base array), and scratch storage never aliases :meth:`acquire`
        buffers.
        """
        dtype = np.dtype(dtype)
        size = int(size)
        base = self._scratch.get(key)
        if base is None or base.dtype != dtype or base.shape[0] < size:
            grown = size if base is None else max(size, 2 * base.shape[0])
            base = np.empty(max(grown, 16), dtype=dtype)
            self._scratch[key] = base
            self.allocated_bytes += base.nbytes
        return base[:size]

    def arange(self, n: int) -> np.ndarray:
        """A read-only view of ``numpy.arange(n)``, cached across epochs.

        Index ramps (``old_to_new`` renumbering, survivor positions) are
        rebuilt every epoch with identical contents; this keeps one ramp,
        grown to the request's size class, instead.  The view is marked
        read-only, so a caller cannot corrupt the shared values.
        """
        n = int(n)
        if self._arange.shape[0] < n:
            self._arange = np.arange(_capacity_for(n), dtype=np.int64)
            self._arange.setflags(write=False)
            self.allocated_bytes += self._arange.nbytes
        return self._arange[:n]

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Counters: acquires, reuses, live buffers, bytes ever allocated."""
        pooled = sum(b.nbytes for stack in self._free.values() for b in stack)
        return {
            "acquires": self.acquires,
            "reuses": self.reuses,
            "live_buffers": len(self._live),
            "allocated_bytes": self.allocated_bytes,
            "pooled_bytes": pooled,
            "scratch_bytes": sum(b.nbytes for b in self._scratch.values()),
        }
