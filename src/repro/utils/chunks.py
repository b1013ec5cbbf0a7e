"""Row chunks for passes over large 2-D tables.

A whole-table expression such as ``a * stride + b`` or ``np.partition(table)``
allocates one or more temporaries the size of the table.  Walking the table
in row chunks keeps each temporary at :data:`CHUNK_CELLS` cells while every
row still sees exactly the same elementwise operations, so the results are
bitwise those of the whole-table expression.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["CHUNK_CELLS", "row_chunks"]

#: Cells per chunk: 64 Ki cells, i.e. 512 KiB per int64 / float64 temporary.
CHUNK_CELLS = 1 << 16


def row_chunks(num_rows: int, width: int, cells: int = CHUNK_CELLS) -> Iterator[slice]:
    """Consecutive row slices of a ``(num_rows, width)`` table, ``cells`` cells each.

    Every slice holds at least one row; the last one stops at ``num_rows``.
    """
    step = max(1, cells // max(1, width))
    for start in range(0, num_rows, step):
        yield slice(start, min(start + step, num_rows))
