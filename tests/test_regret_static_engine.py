"""Property suites for the static max-regret engine (hypothesis, derandomized).

* :func:`max_regret_assign_candidates` equals :func:`max_regret_assign` on the
  implied full matrix, including items whose whole candidate list runs out
  of capacity and fall through to ``row_provider`` rows.
* Items that share one candidate row (GreC's needy clients reading their
  zone's row) place as the loop oracle and the per-item form do, under both
  dominance contracts; bad row indices and unsorted rows (also rows no item
  reads) are rejected.
* The sequential walk equals the per-item loop oracle
  (``tests/reference/regret_loop.py``), under both
  fallbacks: on large capacity-tight instances (demands spanning 1e-3..1e8,
  capacities that some claims fill exactly), at item counts around the
  64-position block, with items displaced from their block choice, with
  candidate hits tied at the caller's floor (GreZ), with candidate sets that
  fill up completely (GreC's row-provider path) and with loads that end
  within rounding distance of capacity.
* On narrow fleets (full rows, no table) each item's preference-list walk
  equals the loop oracle with ties at the maximum (zero and negative-zero
  costs), on capacity-tight worlds through the ``least_loaded`` fallback
  (with and without a candidate mask) and across preference-list chunks.
* GreZ's placement from the sparse cost table equals the full-matrix
  engine's on sparse worlds whose candidate costs tie the zone-population
  floor.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.regret as regret
from repro.core.costs import initial_cost_matrix
from repro.core.grez import assign_zones_greedy, zone_fallback_candidates
from repro.core.problem import CAPInstance
from repro.core.regret import max_regret_assign, max_regret_assign_candidates
from repro.topology.brite import BriteConfig
from repro.world.scenario import build_scenario

from tests.conftest import make_small_config
from tests.reference.regret_loop import max_regret_assign_loop

#: The full-matrix engine and its per-item loop oracle.
FULL_MATRIX_SOLVERS = (max_regret_assign, max_regret_assign_loop)

FALLBACKS = ("least_loaded", "skip")


def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(derandomize=True, deadline=None, database=None, max_examples=max_examples)


def _assert_same(result, expected):
    np.testing.assert_array_equal(result.item_to_server, expected.item_to_server)
    np.testing.assert_array_equal(result.loads, expected.loads)  # bitwise
    assert result.capacity_exceeded == expected.capacity_exceeded


def _exact_fill_capacities(rng, demands, initial_loads, capacities, share):
    """Set a share of capacities to a sequential sum of a random demand subset.

    The sum is accumulated left to right onto the initial load, as the loop
    accumulates a server's load, so a claim sequence can fill the server to
    exactly its capacity — the case where the rounding of the feasibility
    test decides.
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
    cand_idx = np.sort(np.argsort(rng.random((num_items, num_servers)), axis=1)[:, :width], axis=1)
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


def _run_candidates(
    cand_idx, cand_val, desirability, demands, capacities, loads, fallback, item_rows=None, **kwargs
):
    """The candidate entry point; ``item_rows`` defaults to one table row per item."""
    calls = []

    def rows(items):
        calls.append(items.size)
        return desirability[:, items].T.copy()

    if item_rows is None:
        item_rows = np.arange(cand_val.shape[0])
    result = max_regret_assign_candidates(
        cand_idx, item_rows, cand_val, desirability.shape[0], demands, capacities, rows,
        initial_loads=loads, fallback=fallback, **kwargs,
    )
    return result, calls


class TestCandidateEntryPoint:
    @pinned(60)
    @given(seed=st.integers(0, 2**32 - 1), fallback=st.sampled_from(FALLBACKS))
    def test_matches_full_matrix(self, seed, fallback):
        cand_idx, cand_val, des, demands, capacities, loads = _candidate_problem(seed)
        result, _ = _run_candidates(cand_idx, cand_val, des, demands, capacities, loads, fallback)
        for solve in FULL_MATRIX_SOLVERS:
            full = solve(des, demands, capacities, initial_loads=loads, fallback=fallback)
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
        full = max_regret_assign_loop(des, demands, capacities, fallback=fallback)
        _assert_same(result, full)

    @pytest.mark.parametrize(
        "table",
        [np.array([[1, 0], [0, 1]]), np.array([[0, 1], [2, 2]])],
        ids=["read-row", "unread-row"],
    )
    def test_rejects_unsorted_candidates(self, table):
        # Every row is checked, also one that no item reads.
        with pytest.raises(ValueError, match="strictly increasing"):
            max_regret_assign_candidates(
                table, np.zeros(2, dtype=int), np.zeros((2, 2)), 3, np.ones(2), np.ones(3),
                lambda items: np.zeros((items.size, 3)),
            )


# ---------------------------------------------------------------------- #
# Shared candidate rows: many items reach one row of the table (GreC's shape).
# ---------------------------------------------------------------------- #
def _shared_table_problem(seed: int, strict: bool):
    """Items that share a few candidate rows, under either dominance contract.

    Strict (GreC): every unlisted server sits strictly below every listed
    one, floor ``-inf``.  Non-strict (GreZ): every unlisted server sits
    exactly at the item's floor, which some listed values tie.  Capacities
    are tight enough that whole rows fill up and items fall through to the
    row provider.
    """
    rng = np.random.default_rng(seed)
    num_servers = int(rng.integers(3, 40))
    num_rows = int(rng.integers(1, 6))
    num_items = int(rng.integers(1, 300))
    width = int(rng.integers(2, num_servers))
    table = np.sort(np.argsort(rng.random((num_rows, num_servers)), axis=1)[:, :width], axis=1)
    item_rows = rng.integers(0, num_rows, num_items)
    if strict:
        floor = np.full(num_items, -np.inf)
        cand_val = -rng.integers(0, 5, (num_items, width)).astype(float)
        desirability = -1e6 - rng.integers(0, 3, (num_servers, num_items)).astype(float)
    else:
        floor = -rng.integers(5, 9, num_items).astype(float)
        cand_val = floor[:, None] + rng.integers(0, 4, (num_items, width))
        desirability = np.broadcast_to(floor, (num_servers, num_items)).copy()
    desirability[table[item_rows], np.arange(num_items)[:, None]] = cand_val
    demands = rng.uniform(0.5, 2.0, num_items)
    capacities = rng.random(num_servers) * demands.sum() * 1.5 / num_servers + 0.1
    initial_loads = rng.random(num_servers) * capacities * float(rng.choice([0.0, 0.5]))
    return table, item_rows, cand_val, floor, desirability, demands, capacities, initial_loads


class TestSharedCandidateRows:
    @pinned(60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strict=st.booleans(),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_matches_loop_and_per_item_rows(self, seed, strict, fallback):
        table, item_rows, cand_val, floor, des, demands, capacities, loads = (
            _shared_table_problem(seed, strict)
        )
        args = (des, demands, capacities, loads, fallback)
        shared, _ = _run_candidates(table, cand_val, *args, item_rows=item_rows, floor=floor)
        expected = max_regret_assign_loop(
            des, demands, capacities, initial_loads=loads, fallback=fallback
        )
        _assert_same(shared, expected)
        # The per-item form: each item's row copied out of the shared table.
        per_item, _ = _run_candidates(table[item_rows], cand_val, *args, floor=floor)
        _assert_same(shared, per_item)

    def test_many_items_share_one_row(self):
        # 200 items on one 3-server row that holds a few of them: the rest
        # fall through to the row provider.
        rng = np.random.default_rng(0)
        num_servers, num_items = 8, 200
        table = np.array([[1, 4, 6]])
        cand_val = -rng.integers(0, 5, (num_items, 3)).astype(float)
        des = -1e6 - rng.integers(0, 3, (num_servers, num_items)).astype(float)
        des[table[0]] = cand_val.T
        demands = rng.uniform(0.5, 2.0, num_items)
        capacities = np.full(num_servers, demands.sum() / num_servers)
        result, calls = _run_candidates(
            table, cand_val, des, demands, capacities, None, "skip",
            item_rows=np.zeros(num_items, dtype=np.int64),
        )
        assert calls
        _assert_same(result, max_regret_assign_loop(des, demands, capacities, fallback="skip"))

    @pytest.mark.parametrize(
        "item_rows",
        [
            np.array([0, 2]),
            np.array([0, -1]),
            np.array([0]),
            np.array([[0, 1]]),
            np.array([0.0, 1.0]),
        ],
        ids=["past-end", "negative", "too-short", "two-d", "float"],
    )
    def test_bad_row_index_rejected(self, item_rows):
        with pytest.raises(ValueError, match="item_rows"):
            max_regret_assign_candidates(
                np.array([[0, 1], [1, 2]]), item_rows, np.zeros((2, 2)), 3, np.ones(2),
                np.ones(3), lambda items: np.zeros((items.size, 3)),
            )


# ---------------------------------------------------------------------- #
# The sequential walk vs the loop.
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


def _assert_matches_loop(desirability, demands, capacities, initial_loads, fallback, **kwargs):
    kwargs = dict(initial_loads=initial_loads, fallback=fallback, **kwargs)
    result = max_regret_assign(desirability, demands, capacities, **kwargs)
    _assert_same(result, max_regret_assign_loop(desirability, demands, capacities, **kwargs))
    return result


class TestNarrowPreferenceWalk:
    """Fleets of at most ``2 * _TOP_T`` servers: each item walks its preference list."""

    @pinned(60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_servers=st.sampled_from([1, 2, 3, 30, 127, 128]),
        zero_share=st.sampled_from([0.0, 0.5, 1.0]),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_ties_at_the_maximum_match_loop(self, seed, num_servers, zero_share, fallback):
        # Zero costs tie at the maximum (with -0.0 among them): the lowest
        # feasible server id must win, as the loop's first maximum does.
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(1, 400))
        desirability = -np.round(rng.random((num_servers, num_items)) * 3.0)
        desirability[rng.random((num_servers, num_items)) < zero_share] = 0.0
        desirability[rng.random((num_servers, num_items)) < 0.1] = -0.0
        demands = rng.uniform(0.5, 2.0, num_items)
        capacities = rng.random(num_servers) * demands.sum() * 1.5 / num_servers
        _assert_matches_loop(desirability, demands, capacities, None, fallback)

    @pinned(40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tightness=st.sampled_from([0.2, 0.6, 1.0]),
        masked=st.booleans(),
    )
    def test_capacity_tight_least_loaded_fallback_matches_loop(self, seed, tightness, masked):
        # Too little room for everyone: many items walk their whole list and
        # take the least-loaded fallback, over a candidate mask or the fleet.
        rng = np.random.default_rng(seed)
        num_servers = int(rng.integers(2, 129))
        num_items = int(rng.integers(1, 600))
        desirability = -rng.random((num_servers, num_items))
        demands = 10.0 ** rng.uniform(-1.0, 1.0, num_items)
        initial_loads = rng.random(num_servers) * float(rng.choice([0.0, 1.0]))
        capacities = initial_loads + rng.random(num_servers) * demands.sum() * (
            tightness / num_servers
        )
        capacities = _exact_fill_capacities(rng, demands, initial_loads, capacities, 0.3)
        allowed = rng.random((num_servers, num_items)) < 0.2 if masked else None
        result = _assert_matches_loop(
            desirability, demands, capacities, initial_loads, "least_loaded",
            fallback_allowed=allowed,
        )
        assert (result.item_to_server >= 0).all()

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_lists_span_row_chunks(self, fallback):
        # 128 servers make 512-row chunks of preference lists; 1,500 items
        # cross two chunk boundaries in walk order.
        rng = np.random.default_rng(5)
        desirability = -np.round(rng.random((128, 1_500)) * 4.0)
        demands = rng.uniform(0.5, 2.0, 1_500)
        capacities = np.full(128, demands.sum() / 150.0)
        _assert_matches_loop(desirability, demands, capacities, None, fallback)


class TestStaticWalk:
    @pinned(8)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_items=st.integers(5_000, 9_000),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_large_tight_instances_match_loop(self, seed, num_items, fallback):
        _assert_matches_loop(*_large_problem(seed, num_items), fallback)

    @pytest.mark.parametrize("fallback", FALLBACKS)
    def test_long_run_of_ample_room_then_exhaustion_matches_loop(self, fallback):
        # Ample room for the first ~9k items in regret order, then the
        # servers run out, with a few 1e8 demands in between.
        rng = np.random.default_rng(11)
        num_servers, num_items = 4, 12_000
        desirability = -rng.random((num_servers, num_items))
        demands = 10.0 ** rng.uniform(-3.0, 2.0, num_items)
        demands[rng.random(num_items) < 0.001] = 1e8
        capacities = np.full(num_servers, demands.sum() * 0.2)
        _assert_matches_loop(desirability, demands, capacities, None, fallback)

    @pinned(40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_items=st.sampled_from([1, 63, 64, 65, 127, 128, 129]),
        wide=st.booleans(),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_block_boundaries_match_loop(self, seed, num_items, wide, fallback):
        # Item counts around the 64-position block, on a narrow fleet (full
        # rows) and on one wide enough for the top-64 table.
        rng = np.random.default_rng(seed)
        num_servers = int(rng.integers(130, 160)) if wide else int(rng.integers(2, 12))
        desirability = -rng.random((num_servers, num_items))
        if rng.random() < 0.5:
            desirability = np.round(desirability, 1)
        demands = 10.0 ** rng.uniform(-3.0, 3.0, num_items)
        initial_loads = rng.random(num_servers) * float(rng.choice([0.0, 10.0]))
        tightness = float(rng.choice([0.3, 0.8, 1.2]))
        capacities = initial_loads + rng.random(num_servers) * demands.sum() * (
            2.0 * tightness / num_servers
        )
        capacities = _exact_fill_capacities(rng, demands, initial_loads, capacities, 0.3)
        _assert_matches_loop(desirability, demands, capacities, initial_loads, fallback)

    @pinned(30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_displaced_items_match_loop(self, seed, wide, fallback):
        # Server 0 is every item's favourite and holds only a few of them:
        # the rest of each block is displaced from its block choice and
        # re-evaluated on the spot.
        rng = np.random.default_rng(seed)
        num_servers = 140 if wide else int(rng.integers(2, 12))
        num_items = int(rng.integers(65, 300))
        desirability = -rng.random((num_servers, num_items)) - 1.0
        desirability[0] = 0.0
        demands = rng.uniform(0.5, 2.0, num_items)
        capacities = rng.random(num_servers) * demands.sum() * 2.0 / num_servers
        capacities[0] = demands[: int(rng.integers(1, 6))].sum()
        result = _assert_matches_loop(desirability, demands, capacities, None, fallback)
        assert (result.item_to_server != 0).sum() > num_items // 2

    @pinned(20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_displaced_item_fills_server_exactly(self, seed, wide, fallback):
        # One block of items that all prefer server 0, then server 1, in a
        # known regret order.  Server 0 takes the first few; the rest are
        # displaced onto server 1, whose capacity is their exact sequential
        # sum (large enough that the 1e-9 slack is below one ulp), so the
        # last one is accepted only by the loop's ``load + d <= capacity +
        # eps`` test — on a two-server fleet (full-row re-evaluation) and on
        # one wide enough for the top-64 table.
        rng = np.random.default_rng(seed)
        num_items = int(rng.integers(8, 65))
        num_servers = 140 if wide else 2
        regrets = np.sort(rng.random(num_items))[::-1] + 1.0
        desirability = -regrets - 1.0 - rng.random((num_servers, num_items))
        desirability[0] = 0.0
        desirability[1] = -regrets
        demands = 10.0 ** rng.uniform(7.0, 8.0, num_items)
        head = int(rng.integers(1, num_items // 2))
        capacities = np.full(num_servers, 1e12)
        for server, part in ((0, demands[:head]), (1, demands[head:])):
            load = 0.0
            for d in part.tolist():
                load += d
            capacities[server] = load
        result = _assert_matches_loop(desirability, demands, capacities, None, fallback)
        np.testing.assert_array_equal(result.item_to_server, [0] * head + [1] * (num_items - head))

    @pinned(30)
    @given(seed=st.integers(0, 2**32 - 1), fallback=st.sampled_from(FALLBACKS))
    def test_tie_at_table_floor_falls_through(self, seed, fallback):
        # GreZ's shape: a non-strict candidate table whose unlisted servers
        # all sit exactly at the floor, the table minimum.  Every item of one block
        # lists servers 0 and 1 above the floor and the last server at it;
        # servers 0 and 1 fit every item at the block's start but hold only
        # a few, so later items are displaced until their best hit ties the
        # floor, and only the full scan can pick the lowest-id feasible
        # server among the tied ones (an unlisted one, below the last).
        rng = np.random.default_rng(seed)
        num_servers, num_items = int(rng.integers(4, 30)), int(rng.integers(12, 65))
        floor = -10.0
        desirability = np.full((num_servers, num_items), floor)
        desirability[0] = -rng.integers(0, 3, num_items).astype(float)
        desirability[1] = -3.0 - rng.integers(0, 3, num_items)
        cand_idx = np.tile([0, 1, num_servers - 1], (num_items, 1))
        demands = rng.uniform(0.5, 2.0, num_items)
        capacities = rng.uniform(0.5, 3.0, num_servers)
        capacities[:2] = 2.5
        cand_val = np.take_along_axis(desirability.T, cand_idx, axis=1)
        with mock.patch.object(regret, "_full_scan_one", wraps=regret._full_scan_one) as full_scan:
            result, _ = _run_candidates(
                cand_idx, cand_val, desirability, demands, capacities, None, fallback, floor=floor
            )
        expected = max_regret_assign_loop(desirability, demands, capacities, fallback=fallback)
        _assert_same(result, expected)
        assert full_scan.call_count > 0

    @pinned(30)
    @given(seed=st.integers(0, 2**32 - 1), fallback=st.sampled_from(FALLBACKS))
    def test_full_candidate_sets_use_row_provider(self, seed, fallback):
        # GreC's shape: a strictly dominant candidate table whose servers
        # all fill up, so displaced items fetch full rows one at a time.
        rng = np.random.default_rng(seed)
        num_servers, num_items = int(rng.integers(6, 30)), int(rng.integers(64, 200))
        cand_idx = np.tile([0, 1, 2], (num_items, 1))
        cand_val = -rng.integers(0, 5, (num_items, 3)).astype(float)
        desirability = -1e6 - rng.integers(0, 3, (num_servers, num_items)).astype(float)
        desirability[:3] = cand_val.T
        demands = rng.uniform(0.5, 2.0, num_items)
        capacities = rng.uniform(0.5, 1.5, num_servers) * demands.sum() / num_servers
        capacities[:3] = demands[: int(rng.integers(3, 20))].sum() / 3.0
        result, calls = _run_candidates(
            cand_idx, cand_val, desirability, demands, capacities, None, fallback
        )
        assert 1 in calls
        for solve in FULL_MATRIX_SOLVERS:
            full = solve(desirability, demands, capacities, fallback=fallback)
            _assert_same(result, full)

    @pinned(40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ulps=st.integers(-3, 3),
        fallback=st.sampled_from(FALLBACKS),
    )
    def test_loads_within_rounding_of_capacity_match_loop(self, seed, ulps, fallback):
        # Each capacity is a sequential sum of some demands (the loop's own
        # accumulation), minus the 1e-9 slack, moved by a few ulps: the
        # last claims land within rounding distance of capacity + slack.
        rng = np.random.default_rng(seed)
        num_servers, num_items = int(rng.integers(2, 8)), int(rng.integers(64, 400))
        desirability = -np.round(rng.random((num_servers, num_items)), 1)
        demands = 10.0 ** rng.uniform(-3.0, 8.0, num_items)
        initial_loads = rng.random(num_servers) * float(rng.choice([0.0, 1e3, 1e7]))
        capacities = np.empty(num_servers)
        for server in range(num_servers):
            load = float(initial_loads[server])
            for d in demands[rng.random(num_items) < 1.5 / num_servers].tolist():
                load += d
            cap = load - regret._CAP_EPS
            for _ in range(abs(ulps)):
                cap = np.nextafter(cap, np.inf if ulps > 0 else -np.inf)
            capacities[server] = max(cap, 1e-3)
        _assert_matches_loop(desirability, demands, capacities, initial_loads, fallback)


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
        topology=BriteConfig(num_as=10, routers_per_as=30),
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
        instance = dataclasses.replace(sparse_instances[which], delay_bound=bound_ms)
        rng = np.random.default_rng(seed)
        demand = instance.zone_demands().sum()
        capacities = rng.random(instance.num_servers) + 0.05
        capacities *= demand * tightness / capacities.sum()
        instance = dataclasses.replace(instance, server_capacities=capacities)

        table = instance.client_server_delays.sorted_candidates()
        cost = initial_cost_matrix(instance)
        pops = instance.zone_populations()
        # Non-candidates cost the whole zone: the floor every candidate
        # reaches at best (the non-strict dominance the table relies on).
        outside = np.ones_like(cost, dtype=bool)
        outside[table.T, np.arange(instance.num_zones)] = False
        np.testing.assert_array_equal(cost[outside], np.broadcast_to(pops, cost.shape)[outside])

        with_table = assign_zones_greedy(instance)
        for solve in FULL_MATRIX_SOLVERS:
            without = solve(
                -cost, instance.zone_demands(), instance.server_capacities,
                fallback="least_loaded",
                fallback_allowed=zone_fallback_candidates(instance),
            )
            np.testing.assert_array_equal(with_table.zone_to_server, without.item_to_server)
            assert with_table.capacity_exceeded == without.capacity_exceeded

    def test_candidates_tie_the_floor(self, sparse_instances):
        # The worlds above do exercise the tie case: at a tight bound some
        # zone's candidate costs equal its population.
        for instance in sparse_instances:
            instance = dataclasses.replace(instance, delay_bound=20.0)
            table = instance.client_server_delays.sorted_candidates()
            cost = initial_cost_matrix(instance)
            cand_cost = cost[table.T, np.arange(instance.num_zones)]
            assert (cand_cost == instance.zone_populations()[None, :]).any()
