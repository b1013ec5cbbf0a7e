"""2-D scatter-adds as one flat ``np.bincount``.

``np.add.at`` on a 2-D target walks its index tuples one at a time through
the generic ufunc machinery.  :func:`scatter_add_2d` computes the same sums
with a single ``np.bincount`` over flattened ``row * num_cols + col`` cells.
``np.bincount`` walks its input in order, so each cell adds its values in
ascending input order starting from ``0.0`` — exactly the order in which
``np.add.at`` adds them into a zeroed target — and every sum is
bit-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["scatter_add_2d"]


def scatter_add_2d(
    shape: Tuple[int, int],
    rows: np.ndarray,
    values: np.ndarray,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """A zeroed float64 ``shape`` array with ``values`` added at ``rows``.

    With ``cols``, ``values[i]`` is added to cell ``(rows[i], cols[i])`` —
    ``np.add.at(out, (rows, cols), values)``.  Without it, ``values`` is a
    ``(len(rows), shape[1])`` block whose row ``i`` is added to row
    ``rows[i]`` — ``np.add.at(out, rows, values)``.  Indices must be
    non-negative and in range.
    """
    num_rows, num_cols = shape
    rows = np.asarray(rows, dtype=np.int64)
    if cols is None:
        cells = (rows * num_cols)[:, None] + np.arange(num_cols, dtype=np.int64)
    else:
        cells = rows * num_cols + np.asarray(cols, dtype=np.int64)
    sums = np.bincount(
        cells.ravel(),
        weights=np.asarray(values, dtype=np.float64).ravel(),
        minlength=num_rows * num_cols,
    )
    return sums.reshape(num_rows, num_cols)
