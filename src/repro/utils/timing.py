"""Simple wall-clock timing utilities for the experiment harness.

The paper reports algorithm execution times (heuristics < 1 s, the exact MILP
0.2 s / 41.5 s / > 10 h depending on instance size); the runtime experiment
(E9 in DESIGN.md) needs a small timing helper that works both standalone and
inside pytest-benchmark runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Timer"]


@dataclass
class Timer:
    """Context manager measuring elapsed wall-clock time in seconds.

    Example
    -------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    elapsed: float = field(init=False, default=0.0)
    _start: Optional[float] = field(init=False, default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._start = None

    def start(self) -> "Timer":
        """Imperative alternative to the context-manager protocol."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the timer and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed
