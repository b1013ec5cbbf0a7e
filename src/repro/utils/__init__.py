"""Shared utilities: deterministic RNG helpers, validation, timing.

These helpers are deliberately tiny and dependency-free so that every other
subpackage (topology, world, core, experiments) can rely on them without
import cycles.
"""

from repro.utils.pool import WorkerTaskError, available_cpus, ordered_map, resolve_workers
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
)
from repro.utils.timing import Timer

__all__ = [
    "WorkerTaskError",
    "available_cpus",
    "ordered_map",
    "resolve_workers",
    "as_generator",
    "spawn_generators",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "Timer",
]
