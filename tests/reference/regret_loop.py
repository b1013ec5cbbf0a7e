"""Test-only oracle: the per-item max-regret placement loop.

A frozen copy of the original per-item scan that specified the placement
semantics of ``repro.core.regret.max_regret_assign``, with its own capacity
slack, regret order, feasible-regret and fallback helpers, so it shares no
code (and no bug) with the engine it checks.  On every valid input the
engine must return the same ``item_to_server``, bit-identical loads and the
same overflow flag.  The oracle tests in ``tests/test_core_regret.py`` and
``tests/test_regret_static_engine.py`` call it directly; the
``regret_oracle_spy`` fixture in ``tests/conftest.py`` runs it beside every
engine call a full solve makes.

The oracle does no input validation: it expects the arguments the engine
accepts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.regret import RegretResult

#: Capacity slack of every feasibility check.
_CAP_EPS = 1e-9


def _regret_order(desirability: np.ndarray) -> np.ndarray:
    """Item indices by decreasing static regret; stable among ties."""
    num_servers, num_items = desirability.shape
    if num_items == 0:
        return np.zeros(0, dtype=np.int64)
    if num_servers == 1:
        return np.arange(num_items, dtype=np.int64)
    top_two = np.partition(desirability, num_servers - 2, axis=0)[-2:, :]
    regrets = top_two[1] - top_two[0]
    return np.argsort(-regrets, kind="stable").astype(np.int64)


def _feasible_regrets(masked: np.ndarray) -> np.ndarray:
    """Per-item dynamic regret, given desirability masked to ``-inf`` when infeasible.

    Two or more feasible servers give the best-minus-second gap; a single
    feasible server makes the item urgent (``+inf``); none sorts it last
    (``-inf``).
    """
    num_servers = masked.shape[0]
    if num_servers == 1:
        return np.where(np.isneginf(masked[0]), -np.inf, np.inf)
    top_two = np.partition(masked, num_servers - 2, axis=0)[-2:, :]
    with np.errstate(invalid="ignore"):
        regrets = top_two[1] - top_two[0]
    regrets[np.isneginf(top_two[1])] = -np.inf
    return regrets


def _fallback_server(
    capacities: np.ndarray,
    loads: np.ndarray,
    allowed_column: Optional[np.ndarray],
) -> int:
    """Argmax of residual capacity, over the allowed servers when any."""
    residual = capacities - loads
    if allowed_column is not None and allowed_column.any():
        return int(np.argmax(np.where(allowed_column, residual, -np.inf)))
    return int(np.argmax(residual))


def _assign_loop(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    item_to_server: np.ndarray,
    fallback: str,
    recompute: bool,
    fallback_allowed: Optional[np.ndarray] = None,
) -> bool:
    """Per-item scan; mutates ``loads`` / ``item_to_server``, returns overflow flag."""
    num_servers, num_items = desirability.shape
    capacity_exceeded = False

    # Pre-sorted server preference per item (descending desirability).
    preference = np.argsort(-desirability, axis=0, kind="stable")

    def place(item: int) -> None:
        nonlocal capacity_exceeded
        for server in preference[:, item]:
            if loads[server] + demands[item] <= capacities[server] + _CAP_EPS:
                item_to_server[item] = server
                loads[server] += demands[item]
                return
        if fallback == "least_loaded":
            allowed = None if fallback_allowed is None else fallback_allowed[:, item]
            server = _fallback_server(capacities, loads, allowed)
            item_to_server[item] = server
            loads[server] += demands[item]
            capacity_exceeded = True
        # fallback == "skip": leave as -1

    if not recompute:
        for item in _regret_order(desirability):
            place(int(item))
    else:
        remaining = np.ones(num_items, dtype=bool)
        for _ in range(num_items):
            idx = np.flatnonzero(remaining)
            feasible = loads[:, None] + demands[idx][None, :] <= capacities[:, None] + _CAP_EPS
            masked = np.where(feasible, desirability[:, idx], -np.inf)
            regrets = _feasible_regrets(masked)
            # First maximum wins, so regret ties resolve to the lowest index.
            item = int(idx[int(np.argmax(regrets))])
            remaining[item] = False
            place(item)
    return capacity_exceeded


def max_regret_assign_loop(
    desirability: np.ndarray,
    demands: np.ndarray,
    capacities: np.ndarray,
    initial_loads: Optional[np.ndarray] = None,
    fallback: str = "least_loaded",
    recompute: bool = False,
    fallback_allowed: Optional[np.ndarray] = None,
) -> RegretResult:
    """Oracle for :func:`repro.core.regret.max_regret_assign` (same arguments)."""
    desirability = np.asarray(desirability, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    num_servers, num_items = desirability.shape
    loads = np.zeros(num_servers) if initial_loads is None else np.asarray(
        initial_loads, dtype=np.float64
    ).copy()
    if fallback_allowed is not None:
        fallback_allowed = np.asarray(fallback_allowed, dtype=bool)
    item_to_server = np.full(num_items, -1, dtype=np.int64)
    capacity_exceeded = _assign_loop(
        desirability, demands, capacities, loads, item_to_server, fallback,
        recompute, fallback_allowed,
    )
    return RegretResult(
        item_to_server=item_to_server, loads=loads, capacity_exceeded=capacity_exceeded
    )


def assert_same_result(engine: RegretResult, oracle: RegretResult) -> None:
    """Same placements, bit-identical loads and the same overflow flag."""
    np.testing.assert_array_equal(engine.item_to_server, oracle.item_to_server)
    assert engine.loads.tobytes() == oracle.loads.tobytes()
    assert engine.capacity_exceeded == oracle.capacity_exceeded
