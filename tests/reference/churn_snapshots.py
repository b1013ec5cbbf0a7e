"""Test-only oracle: apply a churn batch through population snapshots.

:func:`repro.dynamics.events.apply_churn` applies a batch in one pass over
the old population, writing into arena buffers.  This oracle takes the long
way through the population's own snapshot methods: move the movers
(``with_moved``), keep the survivors (``subset``), append the joiners
(``with_joined``) and number the survivors from a keep mask.
``assert_same_churn`` compares two results bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.events import ChurnBatch, ChurnResult
from repro.world.clients import ClientPopulation


def apply_churn_snapshots(population: ClientPopulation, batch: ChurnBatch) -> ChurnResult:
    """Post-churn population and index maps, built from population snapshots."""
    num_old = population.num_clients
    moved = population.with_moved(batch.move_indices, batch.move_zones)
    keep_mask = np.ones(num_old, dtype=bool)
    keep_mask[batch.leave_indices] = False
    survivors = moved.subset(np.flatnonzero(keep_mask))
    old_to_new = np.full(num_old, -1, dtype=np.int64)
    old_to_new[keep_mask] = np.arange(int(keep_mask.sum()))
    final = survivors.with_joined(batch.join_nodes, batch.join_zones)
    return ChurnResult(
        population=final,
        old_to_new=old_to_new,
        new_client_indices=np.arange(survivors.num_clients, final.num_clients),
    )


def _assert_same_array(name: str, actual, expected) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, f"{name}: dtype {actual.dtype} != {expected.dtype}"
    assert actual.shape == expected.shape, f"{name}: shape {actual.shape} != {expected.shape}"
    assert actual.tobytes() == expected.tobytes(), f"{name}: bytes differ"


def assert_same_churn(actual: ChurnResult, expected: ChurnResult) -> None:
    """Populations and index maps equal bit for bit; survivor cache consistent."""
    _assert_same_array("nodes", actual.population.nodes, expected.population.nodes)
    _assert_same_array("zones", actual.population.zones, expected.population.zones)
    _assert_same_array("old_to_new", actual.old_to_new, expected.old_to_new)
    _assert_same_array(
        "new_client_indices", actual.new_client_indices, expected.new_client_indices
    )
    if actual.survivors_old is not None:
        _assert_same_array(
            "survivors_old", actual.survivors_old, np.flatnonzero(expected.old_to_new >= 0)
        )
