"""Streaming CSV output for the CLI's ``--csv`` record dumps.

The engine commands write one row per epoch record, so the series behind a
run can be re-plotted with any external tool.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO, Optional, Sequence, Union

__all__ = ["CsvAppender"]

PathLike = Union[str, Path]


class CsvAppender:
    """Incremental CSV writer for streaming record producers.

    The longitudinal ``simulate`` pipeline yields records one epoch at a time;
    this context manager writes each row as it arrives, so a thousand-epoch
    run is dumped with O(1) memory.  The header row is written on entry and
    every appended row is checked against it.

    ``flush_interval`` batches the formatting work: rows accumulate in an
    in-memory buffer and are handed to ``csv.writer.writerows`` once the
    buffer holds that many rows (and on exit), which keeps the per-row cost
    of a high-throughput epoch stream to one list append.  The file contents
    are byte-identical for any interval; the default of 1 preserves the
    historical write-through behaviour.

    >>> with CsvAppender("out.csv", ["epoch", "pqos"]) as out:   # doctest: +SKIP
    ...     for record in simulator.stream(1000):
    ...         out.append([record.epoch, record.pqos_adopted])
    """

    def __init__(self, path: PathLike, headers: Sequence[str], flush_interval: int = 1):
        self.path = Path(path)
        self.headers = list(headers)
        self.flush_interval = int(flush_interval)
        if self.flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        self._handle: Optional[IO[str]] = None
        self._writer = None
        self._buffer: list = []
        self.rows_written = 0

    def __enter__(self) -> "CsvAppender":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", newline="")
        self._writer = csv.writer(self._handle)
        self._writer.writerow(self.headers)
        return self

    def append(self, row: Sequence[object]) -> None:
        """Buffer one row (must match the header width)."""
        if self._writer is None:
            raise RuntimeError("CsvAppender must be used as a context manager")
        if len(row) != len(self.headers):
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {len(self.headers)}")
        self._buffer.append(row if isinstance(row, list) else list(row))
        self.rows_written += 1
        if len(self._buffer) >= self.flush_interval:
            self.flush()

    def flush(self) -> None:
        """Write all buffered rows out to the underlying file."""
        if self._buffer:
            self._writer.writerows(self._buffer)
            self._buffer.clear()

    def __exit__(self, *exc_info) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None
            self._writer = None
