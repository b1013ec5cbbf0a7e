"""Regression: a growing fleet must keep every server a candidate it can hold.

``CompactDelayMatrix.with_servers`` used to re-select each zone's candidates
with the *clamped* K (the width of the old candidate table) instead of the
requested ``sparse_top_k``.  On ``4s-8z-80c-60cp`` with ``sparse_top_k=8``
the world starts at K = 4 (all servers); after one server joined, K stayed 4
of 5 and 80 of the 400 cells read the 1e9 sentinel, where ``build_scenario``
on the same fleet gives K = 5 and no sentinel cell.  A fleet that shrinks and
then grows lost candidates the same way.  A dense world — every server a
candidate, whatever the fleet size — must stay exact through the same
batches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics.infrastructure import ServerChurnBatch, apply_server_churn
from repro.experiments.config import config_from_label
from repro.world.scenario import build_scenario

BACKENDS = {
    "dense": {"delay_backend": "dense"},
    "sparse-covering": {"delay_backend": "sparse", "sparse_top_k": 8},
}


def _free_nodes(scenario, count: int) -> np.ndarray:
    taken = set(scenario.servers.nodes.tolist())
    return np.array([n for n in range(scenario.topology.num_nodes) if n not in taken][:count])


def _advance(scenario, batch: ServerChurnBatch):
    return scenario.apply_server_delta(apply_server_churn(scenario.servers, batch))


def _join(scenario, count: int):
    nodes = _free_nodes(scenario, count)
    return _advance(scenario, ServerChurnBatch(join_nodes=nodes, join_capacities=np.full(count, 1e7)))


def _assert_exact(scenario) -> None:
    model = scenario.delay_model
    expected = model.rtt[np.ix_(scenario.population.nodes, scenario.servers.nodes)]
    np.testing.assert_array_equal(scenario.client_server_delays.toarray(), expected)


@pytest.fixture(params=sorted(BACKENDS), scope="module")
def world(request):
    config = config_from_label("4s-8z-80c-60cp", **BACKENDS[request.param])
    return build_scenario(config, seed=3)


def test_join_only_batch_stays_exact(world):
    _assert_exact(world)
    grown = _join(world, 1)
    assert grown.num_servers == 5
    _assert_exact(grown)


def test_shrink_then_grow_stays_exact(world):
    shrunk = _advance(world, ServerChurnBatch(leave_indices=np.array([1])))
    assert shrunk.num_servers == 3
    _assert_exact(shrunk)
    regrown = _join(shrunk, 2)
    assert regrown.num_servers == 5
    _assert_exact(regrown)
