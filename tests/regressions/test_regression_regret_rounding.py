"""Regression: a claim that fills its server exactly must not stall the rounds.

Item 0 fills server 1 to exactly its capacity, but in the static engine's
former per-server prefix sums its demand was ``(1e8 + 0.1016) - 1e8`` — the
prefix of the batch's other server group subtracted back out — which rounds
6.2e-9 above the demand, more than the 1e-9 capacity slack.  The engine then
rejected the head of the regret order every round, admitted nothing and never
returned; the per-item loop oracle places both items.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.regret import max_regret_assign
from tests.reference.regret_loop import assert_same_result, max_regret_assign_loop

DESIRABILITY = np.array([[0.0, 5.0], [5.0, 0.0]])
DEMANDS = np.array([0.1016, 1e8])
CAPACITIES = np.array([1e9, 0.1016])


@pytest.mark.parametrize("fallback", ["least_loaded", "skip"])
def test_exact_fill_after_other_group_matches_loop(fallback):
    loop = max_regret_assign_loop(DESIRABILITY, DEMANDS, CAPACITIES, fallback=fallback)
    vec = max_regret_assign(DESIRABILITY, DEMANDS, CAPACITIES, fallback=fallback)
    np.testing.assert_array_equal(loop.item_to_server, [1, 0])
    assert not loop.capacity_exceeded
    assert_same_result(vec, loop)
