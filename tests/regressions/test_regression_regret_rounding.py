"""Regression: a claim that fills its server exactly must not stall the rounds.

Item 0 fills server 1 to exactly its capacity, but in the vectorized static
engine's per-server prefix sums its demand is ``(1e8 + 0.1016) - 1e8`` — the
prefix of the batch's other server group subtracted back out — which rounds
6.2e-9 above the demand, more than the 1e-9 capacity slack.  The engine then
rejected the head of the regret order every round, admitted nothing and never
returned; the loop backend places both items.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.regret import BACKENDS, max_regret_assign

DESIRABILITY = np.array([[0.0, 5.0], [5.0, 0.0]])
DEMANDS = np.array([0.1016, 1e8])
CAPACITIES = np.array([1e9, 0.1016])


@pytest.mark.parametrize("fallback", ["least_loaded", "skip"])
def test_exact_fill_after_other_group_matches_loop(fallback):
    results = {
        backend: max_regret_assign(
            DESIRABILITY, DEMANDS, CAPACITIES, fallback=fallback, backend=backend
        )
        for backend in BACKENDS
    }
    loop, vec = results["loop"], results["vectorized"]
    np.testing.assert_array_equal(loop.item_to_server, [1, 0])
    np.testing.assert_array_equal(vec.item_to_server, loop.item_to_server)
    np.testing.assert_array_equal(vec.loads, loop.loads)
    assert not vec.capacity_exceeded and not loop.capacity_exceeded
