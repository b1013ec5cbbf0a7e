"""Property suites for the static max-regret engine (hypothesis, derandomized).

* :func:`max_regret_assign_candidates` equals :func:`max_regret_assign` on the
  implied full matrix, including items whose whole candidate list runs out
  of capacity and fall through to ``row_provider`` rows.
* The lazy front-window rounds equal the ``loop`` specification on large,
  capacity-tight instances (so the window grows 128 → 1024 → 8192), under
  both fallbacks, with demands spanning 1e-3..1e8 and capacities that some
  claims fill exactly.
* GreZ with its zone candidate table equals GreZ without it on sparse
  worlds whose candidate costs tie the zone-population floor.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.regret as regret
from repro.core.costs import initial_cost_matrix
from repro.core.grez import _zone_candidate_table, assign_zones_greedy, zone_fallback_candidates
from repro.core.problem import CAPInstance
from repro.core.regret import BACKENDS, max_regret_assign, max_regret_assign_candidates
from repro.topology.brite import BriteConfig
from repro.world.scenario import build_scenario

from tests.conftest import make_small_config

FALLBACKS = ("least_loaded", "skip")


def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(
        derandomize=True, deadline=None, database=None, max_examples=max_examples
    )


def _assert_same(result, expected):
    np.testing.assert_array_equal(result.item_to_server, expected.item_to_server)
    np.testing.assert_array_equal(result.loads, expected.loads)  # bitwise
    assert result.capacity_exceeded == expected.capacity_exceeded


def _exact_fill_capacities(rng, demands, initial_loads, capacities, share):
    """Set a share of capacities to a sequential sum of a random demand subset.

    The sum is accumulated left to right onto the initial load, as the loop
    accumulates a server's load, so a claim sequence can fill the server to
    exactly its capacity — the case where prefix-sum rounding decides.
    """
    capacities = capacities.copy()
    for server in np.flatnonzero(rng.random(capacities.size) < share):
        subset = demands[rng.random(demands.size) < 1.0 / capacities.size]
        load = float(initial_loads[server])
        for d in subset.tolist():
            load += d
        capacities[server] = max(load, 1e-3)
    return capacities


# ---------------------------------------------------------------------- #
# Candidate-list entry point vs the full-matrix engine.
# ---------------------------------------------------------------------- #
def _candidate_problem(seed: int):
    rng = np.random.default_rng(seed)
    num_servers = int(rng.integers(3, 40))
    num_items = int(rng.integers(1, 300))
    width = int(rng.integers(2, num_servers))
    cand_idx = np.sort(
        np.argsort(rng.random((num_items, num_servers)), axis=1)[:, :width], axis=1
    )
    cand_val = -np.round(rng.random((num_items, width)) * 10.0, int(rng.integers(0, 3)))
    # Unlisted servers sit strictly below every listed value (GreC's
    # sentinel-cost floor), with ties among themselves.
    desirability = np.full((num_servers, num_items), -1e6)
    if rng.random() < 0.5:
        desirability -= np.round(rng.random((num_servers, num_items)) * 3.0)
    desirability[cand_idx, np.arange(num_items)[:, None]] = cand_val
    demands = rng.random(num_items) * 5.0 + 0.01
    # Tight enough that whole candidate lists fill up.
    capacities = rng.random(num_servers) * demands.sum() * 1.5 / num_servers + 0.1
    initial_loads = rng.random(num_servers) * capacities * float(rng.choice([0.0, 0.5]))
    return cand_idx, cand_val, desirability, demands, capacities, initial_loads


def _run_candidates(cand_idx, cand_val, desirability, demands, capacities, loads, fallback):
    calls = []

    def rows(items):
        calls.append(items.size)
        return desirability[:, items].T.copy()

    result = max_regret_assign_candidates(
        cand_idx, cand_val, desirability.shape[0], demands, capacities, rows,
        initial_loads=loads, fallback=fallback,
    )
    return result, calls


class TestCandidateEntryPoint:
    @pinned(60)
    @given(seed=st.integers(0, 2**32 - 1), fallback=st.sampled_from(FALLBACKS))
    def test_matches_full_matrix(self, seed, fallback):
        cand_idx, cand_val, des, demands, capacities, loads = _candidate_problem(seed)
        result, _ = _run_candidates(cand_idx, cand_val, des, demands, capacities, loads, fallback)
        for backend in BACKENDS:
            full = max_regret_assign(
                des, demands, capacities, initial_loads=loads, fallback=fallback,
                backend=backend,
            )
            _assert_same(result, full)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_exhausted_candidates_fall_through_to_rows(self, fallback):
        # Every item lists servers 0 and 1, which hold one item between them:
        # the others must come from the row provider's full-width rows.
        num_items, num_servers = 6, 5
        cand_idx = np.tile([0, 1], (num_items, 1))
        cand_val = np.column_stack([np.full(num_items, -1.0), np.full(num_items, -2.0)])
        des = np.full((num_servers, num_items), -100.0)
        des[2:, :] -= np.arange(num_servers - 2)[:, None]
        des[0], des[1] = -1.0, -2.0
        demands = np.full(num_items, 1.0)
        capacities = np.array([1.0, 0.5, 2.0, 2.0, 2.0])
        result, calls = _run_candidates(
            cand_idx, cand_val, des, demands, capacities, np.zeros(num_servers), fallback
        )
        assert calls, "no item fell through to the row provider"
        assert set(result.item_to_server[result.item_to_server >= 0].tolist()) > {0}
        full = max_regret_assign(des, demands, capacities, fallback=fallback, backend="loop")
        _assert_same(result, full)

    def test_rejects_unsorted_candidates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            max_regret_assign_candidates(
                np.array([[1, 0]]), np.zeros((1, 2)), 2, np.ones(1), np.ones(2),
                lambda items: np.zeros((items.size, 2)),
            )


# ---------------------------------------------------------------------- #
# Lazy front-window rounds vs the loop on large, tight instances.
# ---------------------------------------------------------------------- #
def _large_problem(seed: int, num_items: int):
    rng = np.random.default_rng(seed)
    num_servers = int(rng.integers(2, 12))
    desirability = -rng.random((num_servers, num_items))
    if rng.random() < 0.5:
        desirability = np.round(desirability, 2)  # desirability and regret ties
    demands = 10.0 ** rng.uniform(-3.0, 8.0, num_items)
    initial_loads = rng.random(num_servers) * float(rng.choice([0.0, 1e3, 1e7]))
    tightness = float(rng.choice([0.5, 0.9, 1.1]))
    capacities = initial_loads + rng.random(num_servers) * demands.sum() * (
        2.0 * tightness / num_servers
    )
    capacities = _exact_fill_capacities(rng, demands, initial_loads, capacities, 0.5)
    return desirability, demands, capacities, initial_loads


def _assert_matches_loop(desirability, demands, capacities, initial_loads, fallback):
    results = {
        backend: max_regret_assign(
            desirability, demands, capacities, initial_loads=initial_loads,
            fallback=fallback, backend=backend,
        )
        for backend in BACKENDS
    }
    _assert_same(results["vectorized"], results["loop"])


class TestLazyRounds:
    @pinned(8)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_items=st.integers(5_000, 9_000),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_large_tight_instances_match_loop(self, seed, num_items, fallback):
        _assert_matches_loop(*_large_problem(seed, num_items), fallback)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_window_grows_to_8192_and_matches_loop(self, fallback):
        # Ample room for the first ~9k items in regret order, then the
        # servers run out: the first round's window must grow 128 -> 1024 ->
        # 8192 before it meets a rejection.
        rng = np.random.default_rng(11)
        num_servers, num_items = 4, 12_000
        desirability = -rng.random((num_servers, num_items))
        demands = 10.0 ** rng.uniform(-3.0, 2.0, num_items)
        demands[rng.random(num_items) < 0.001] = 1e8
        capacities = np.full(num_servers, demands.sum() * 0.2)
        windows = []
        first_rejection = regret._first_rejection

        def spy(servers, claim_d, loads, cap_eps):
            windows.append(servers.size)
            return first_rejection(servers, claim_d, loads, cap_eps)

        with mock.patch.object(regret, "_first_rejection", spy):
            _assert_matches_loop(desirability, demands, capacities, None, fallback)
        assert {128, 1024, 8192} <= set(windows)


# ---------------------------------------------------------------------- #
# GreZ's zone candidate table on sparse worlds.
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def sparse_instances():
    """Sparse worlds with candidate sets narrower than the fleet.

    One narrow fleet (no table without candidates) and one wider than
    ``2 * 64`` servers (the top-64 ``argpartition`` table without them).
    """
    narrow = make_small_config(
        num_servers=12, num_zones=20, num_clients=400, delay_backend="sparse", sparse_top_k=4
    )
    wide = make_small_config(
        num_servers=160, num_zones=30, num_clients=900, delay_backend="sparse",
        sparse_top_k=8, total_capacity_mbps=400.0, min_server_capacity_mbps=0.5,
        topology=BriteConfig(model="hierarchical", num_nodes=300, num_as=10, routers_per_as=30),
    )
    return [CAPInstance.from_scenario(build_scenario(c, seed=3)) for c in (narrow, wide)]


class TestGreZCandidateTable:
    @pinned(30)
    @given(
        which=st.integers(0, 1),
        bound_ms=st.floats(5.0, 400.0),
        tightness=st.floats(0.3, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_placement_without_table(
        self, sparse_instances, which, bound_ms, tightness, seed
    ):
        instance = sparse_instances[which].with_delay_bound(bound_ms)
        rng = np.random.default_rng(seed)
        demand = instance.zone_demands().sum()
        capacities = rng.random(instance.num_servers) + 0.05
        capacities *= demand * tightness / capacities.sum()
        instance = instance.with_server_capacities(capacities)

        table = _zone_candidate_table(instance)
        assert table is not None
        cost = initial_cost_matrix(instance)
        pops = instance.zone_populations()
        # Non-candidates cost the whole zone: the floor every candidate
        # reaches at best (the non-strict dominance the table relies on).
        outside = np.ones_like(cost, dtype=bool)
        outside[table.T, np.arange(instance.num_zones)] = False
        np.testing.assert_array_equal(cost[outside], np.broadcast_to(pops, cost.shape)[outside])

        with_table = assign_zones_greedy(instance)
        for backend in BACKENDS:
            without = max_regret_assign(
                -cost, instance.zone_demands(), instance.server_capacities,
                fallback="least_loaded", backend=backend,
                fallback_allowed=zone_fallback_candidates(instance),
            )
            np.testing.assert_array_equal(with_table.zone_to_server, without.item_to_server)
            assert with_table.capacity_exceeded == without.capacity_exceeded

    def test_candidates_tie_the_floor(self, sparse_instances):
        # The worlds above do exercise the tie case: at a tight bound some
        # zone's candidate costs equal its population.
        for instance in sparse_instances:
            instance = instance.with_delay_bound(20.0)
            table = _zone_candidate_table(instance)
            cost = initial_cost_matrix(instance)
            cand_cost = cost[table.T, np.arange(instance.num_zones)]
            assert (cand_cost == instance.zone_populations()[None, :]).any()
