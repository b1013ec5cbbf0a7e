"""Unified registry of every CAP solver (heuristics, optimal, baselines).

The experiment harness refers to solvers by name; this registry maps names to
callables with the uniform signature ``(instance, seed) -> Assignment``.  The
four two-phase heuristics from the paper and the optimal MILP baseline are
always present; the related-work baselines from :mod:`repro.baselines`
register themselves on import (see that package's ``__init__``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable

from repro.core.assignment import Assignment
from repro.core.optimal import OptimalOptions, solve_cap_optimal
from repro.core.problem import CAPInstance
from repro.core.two_phase import STANDARD_ALGORITHMS
from repro.utils.rng import SeedLike

__all__ = ["SolverFn", "register_solver", "get_solver", "solver_names", "solve"]

SolverFn = Callable[[CAPInstance, SeedLike], Assignment]

_REGISTRY: Dict[str, SolverFn] = {}


def register_solver(name: str, solver: SolverFn, overwrite: bool = False) -> None:
    """Register a named CAP solver.

    Parameters
    ----------
    name:
        Canonical lower-case name.
    solver:
        Callable ``(instance, seed) -> Assignment``.
    overwrite:
        Allow replacing an existing registration (tests only).
    """
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise KeyError(f"solver {name!r} is already registered")
    _REGISTRY[key] = solver


def get_solver(name: str) -> SolverFn:
    """Look up a solver by name (case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown solver {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[key]


def solver_names() -> list[str]:
    """Sorted names of all registered solvers."""
    return sorted(_REGISTRY)


def solve(
    instance: CAPInstance,
    name: str,
    seed: SeedLike = None,
) -> Assignment:
    """Solve an instance with the named solver."""
    return get_solver(name)(instance, seed)


def _register_standard() -> None:
    for algo_name, algorithm in STANDARD_ALGORITHMS.items():
        register_solver(algo_name, algorithm.solve, overwrite=True)

    def _optimal(instance: CAPInstance, seed: SeedLike = None) -> Assignment:  # noqa: ARG001
        return solve_cap_optimal(instance, options=OptimalOptions())

    register_solver("optimal", _optimal, overwrite=True)


_register_standard()


def ensure_registered(names: Iterable[str]) -> None:
    """Raise ``KeyError`` unless every name in ``names`` is registered."""
    missing = [n for n in names if n.lower() not in _REGISTRY]
    if missing:
        raise KeyError(f"solvers not registered: {', '.join(missing)}")
