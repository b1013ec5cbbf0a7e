"""Sorted distinct values of an integer array, by one sort.

Plain ``np.unique`` (and ``np.setdiff1d``, ``np.intersect1d`` and
``np.percentile``, which call it) imports ``numpy.ma`` on its first call on
numpy 2.4, through ``np.ma.is_masked``.  :func:`sorted_distinct` returns the
same values with the same dtype from one ``np.sort`` and one neighbour
comparison, so the engine, federation and replication paths never load
``numpy.ma``; it is also several times faster on the few-hundred-element
arrays those paths pass it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_distinct"]


def sorted_distinct(values) -> np.ndarray:
    """The sorted distinct values of ``values``, as plain ``np.unique`` returns them.

    ``values`` is flattened first, like ``np.unique`` without ``axis``; the
    result is a new 1-D array of the input dtype.  Meant for integer arrays,
    where equal values are identical and ``!=`` finds every boundary.
    """
    ordered = np.sort(np.asarray(values), axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
