"""Tests for repro.core.regret — the shared max-regret greedy machinery."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.regret as regret
from repro.core.regret import (
    max_regret_assign,
    max_regret_assign_candidates,
    regret_order,
)
from repro.utils.chunks import row_chunks
from tests.reference.regret_loop import assert_same_result, max_regret_assign_loop

#: The engine and its per-item loop oracle, for behaviour both must show.
SOLVERS = pytest.mark.parametrize(
    "solve", [max_regret_assign, max_regret_assign_loop], ids=["engine", "oracle"]
)


class TestRegretOrder:
    def test_highest_regret_first(self):
        # Item 0: best 10, second 9 → regret 1.  Item 1: best 10, second 2 → regret 8.
        desirability = np.array([[10.0, 10.0], [9.0, 2.0]])
        order = regret_order(desirability)
        np.testing.assert_array_equal(order, [1, 0])

    def test_ties_keep_input_order(self):
        desirability = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(regret_order(desirability), [0, 1, 2])

    def test_single_server_degenerates_to_input_order(self):
        desirability = np.array([[3.0, 9.0, 1.0]])
        np.testing.assert_array_equal(regret_order(desirability), [0, 1, 2])

    def test_empty_items(self):
        assert regret_order(np.zeros((3, 0))).size == 0

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            regret_order(np.zeros(4))


class TestRegretTable:
    @pytest.mark.parametrize("width", [96, 64])
    def test_order_matches_regret_order_across_chunks(self, width):
        # 2,500 items with integer desirabilities (many tied regrets) over
        # 96 servers; the table lists each item's `width` most desirable
        # servers in ascending id order, which holds its two largest values.
        rng = np.random.default_rng(6)
        desirability = rng.integers(0, 200, size=(96, 2500)).astype(np.float64)
        items = desirability.T
        table_idx = np.sort(np.argsort(-items, axis=1, kind="stable")[:, :width], axis=1)
        table_val = np.take_along_axis(items, table_idx, axis=1)
        assert len(list(row_chunks(*table_val.shape))) >= 3
        rows = np.arange(table_idx.shape[0])
        _, order = regret._table(table_idx, rows, table_val, table_val.min(axis=1))
        np.testing.assert_array_equal(order, regret_order(desirability))


class TestMaxRegretAssign:
    def test_prefers_most_desirable_server(self):
        desirability = np.array([[0.0, -5.0], [-3.0, 0.0]])
        result = max_regret_assign(desirability, demands=np.ones(2), capacities=np.full(2, 10.0))
        np.testing.assert_array_equal(result.item_to_server, [0, 1])
        assert not result.capacity_exceeded

    def test_capacity_forces_second_choice(self):
        # Both items prefer server 0, but it can hold only one of them.
        desirability = np.array([[0.0, 0.0], [-1.0, -1.0]])
        result = max_regret_assign(
            desirability, demands=np.array([6.0, 6.0]), capacities=np.array([10.0, 10.0])
        )
        assert sorted(result.item_to_server.tolist()) == [0, 1]
        assert not result.capacity_exceeded

    def test_least_loaded_fallback_flags_overload(self):
        desirability = np.array([[0.0], [-1.0]])
        result = max_regret_assign(
            desirability, demands=np.array([50.0]), capacities=np.array([10.0, 20.0])
        )
        assert result.capacity_exceeded
        # Falls back to the server with the most residual capacity.
        assert result.item_to_server[0] == 1

    def test_skip_fallback_leaves_unassigned(self):
        desirability = np.array([[0.0], [-1.0]])
        result = max_regret_assign(
            desirability,
            demands=np.array([50.0]),
            capacities=np.array([10.0, 20.0]),
            fallback="skip",
        )
        assert result.item_to_server[0] == -1
        assert not result.capacity_exceeded

    def test_initial_loads_respected(self):
        desirability = np.array([[0.0], [-1.0]])
        result = max_regret_assign(
            desirability,
            demands=np.array([5.0]),
            capacities=np.array([10.0, 10.0]),
            initial_loads=np.array([8.0, 0.0]),
        )
        assert result.item_to_server[0] == 1

    def test_loads_returned(self):
        desirability = np.array([[0.0, 0.0], [-1.0, -1.0]])
        result = max_regret_assign(
            desirability, demands=np.array([2.0, 3.0]), capacities=np.array([10.0, 10.0])
        )
        assert result.loads.sum() == pytest.approx(5.0)

    def test_recompute_matches_static_on_easy_instance(self):
        rng = np.random.default_rng(0)
        desirability = -rng.random((3, 6))
        demands = np.ones(6)
        capacities = np.full(3, 100.0)
        static = max_regret_assign(desirability, demands, capacities, recompute=False)
        dynamic = max_regret_assign(desirability, demands, capacities, recompute=True)
        # With ample capacity both variants give every item its best server.
        np.testing.assert_array_equal(static.item_to_server, dynamic.item_to_server)

    def test_all_items_assigned_with_ample_capacity(self):
        rng = np.random.default_rng(1)
        desirability = -rng.random((4, 20))
        result = max_regret_assign(desirability, demands=np.ones(20), capacities=np.full(4, 100.0))
        assert (result.item_to_server >= 0).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros(3), np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros((2, 3)), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros((2, 3)), np.ones(3), np.ones(3))

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros((2, 1)), np.array([-1.0]), np.ones(2))

    def test_unknown_fallback_rejected(self):
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros((2, 1)), np.ones(1), np.ones(2), fallback="explode")

    def test_bad_initial_loads_shape(self):
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros((2, 1)), np.ones(1), np.ones(2), initial_loads=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_non_finite_desirability_rejected(self, bad, recompute):
        # NaN used to place differently on the engine and the per-item loop
        # ([0 1 2] vs [0 2 1] for this matrix); every non-finite value is now
        # an error.
        desirability = np.array([[-1.0, -2.0, bad], [-3.0, bad, -1.0], [-2.0, -1.0, -5.0]])
        with pytest.raises(ValueError, match="finite"):
            max_regret_assign(desirability, np.ones(3), np.ones(3), recompute=recompute)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("recompute", [False, True])
    @pytest.mark.parametrize("field", ["demands", "capacities", "initial_loads"])
    def test_non_finite_demands_capacities_loads_rejected(self, field, recompute, bad):
        # A NaN demand used to place [0 0] on the engine and [0 1] on the
        # per-item loop; NaN capacities and initial loads placed silently.
        args = {
            "demands": np.array([1.0, 1.0]),
            "capacities": np.array([5.0, 5.0]),
            "initial_loads": np.zeros(2),
        }
        args[field][0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            max_regret_assign(-np.ones((2, 2)), recompute=recompute, **args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_desirability_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            max_regret_assign_candidates(
                np.array([[0, 1]]), np.zeros(1, dtype=int), np.array([[-1.0, bad]]), 2,
                np.ones(1), np.ones(2),
                lambda items: np.zeros((items.size, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["demands", "capacities", "initial_loads"])
    def test_non_finite_candidate_demands_capacities_loads_rejected(self, field, bad):
        args = {
            "demands": np.array([1.0]),
            "capacities": np.array([5.0, 5.0]),
            "initial_loads": np.zeros(2),
        }
        args[field][0] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            max_regret_assign_candidates(
                np.array([[0, 1]]), np.zeros(1, dtype=int), np.array([[-1.0, -2.0]]), 2,
                row_provider=lambda items: np.zeros((items.size, 2)), **args,
            )

    def test_nan_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            max_regret_assign_candidates(
                np.array([[0, 1]]), np.zeros(1, dtype=int), np.array([[-1.0, -2.0]]), 2,
                np.ones(1), np.ones(2),
                lambda items: np.zeros((items.size, 2)), floor=np.nan,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_provider_rows_rejected(self, bad):
        # Both candidates are full, so the item needs the provider's full row.
        with pytest.raises(ValueError, match="finite"):
            max_regret_assign_candidates(
                np.array([[0, 1]]), np.zeros(1, dtype=int), np.array([[-1.0, -2.0]]), 3, np.ones(1),
                np.array([0.5, 0.5, 2.0]),
                lambda items: np.array([[-1.0, -2.0, bad]]),
            )


class TestDynamicRegret:
    """Behaviour of the feasibility-aware ``recompute=True`` mode (engine and oracle)."""

    @SOLVERS
    def test_urgent_item_placed_before_higher_static_regret(self, solve):
        # Item 0 has the larger static regret, but item 1's only feasible
        # server is server 0 (its demand exceeds server 1's capacity), which
        # makes it urgent under dynamic regret: it claims server 0 first and
        # item 0 falls back to its second choice.
        desirability = np.array([[0.0, 0.0], [-10.0, -1.0]])
        demands = np.array([2.0, 3.0])
        capacities = np.array([3.0, 2.0])
        static = solve(desirability, demands, capacities, recompute=False)
        dynamic = solve(desirability, demands, capacities, recompute=True)
        np.testing.assert_array_equal(static.item_to_server, [0, 1])
        assert static.capacity_exceeded  # item 1 fits nowhere after item 0
        np.testing.assert_array_equal(dynamic.item_to_server, [1, 0])
        assert not dynamic.capacity_exceeded

    @SOLVERS
    def test_items_without_feasible_server_fall_back_last(self, solve):
        desirability = np.array([[0.0, -1.0], [-2.0, 0.0]])
        result = solve(
            desirability,
            demands=np.array([50.0, 1.0]),
            capacities=np.array([10.0, 10.0]),
            recompute=True,
            fallback="skip",
        )
        assert result.item_to_server[0] == -1
        assert result.item_to_server[1] == 1
        assert not result.capacity_exceeded


def _random_problem(rng):
    """One randomized max-regret problem, biased toward capacity contention."""
    num_servers = int(rng.integers(1, 8))
    num_items = int(rng.integers(0, 40))
    desirability = -rng.random((num_servers, num_items)) * rng.choice([1.0, 10.0])
    if rng.random() < 0.3:
        desirability = np.round(desirability, 1)  # force desirability/regret ties
    if rng.random() < 0.5:
        demands = rng.random(num_items) * 5.0
    else:
        demands = rng.integers(1, 6, num_items).astype(np.float64)
    tightness = float(rng.choice([0.3, 0.6, 1.0, 3.0]))
    capacities = rng.random(num_servers) * demands.sum() * tightness / num_servers + 0.1
    initial_loads = rng.random(num_servers) * capacities * float(rng.choice([0.0, 0.5]))
    return desirability, demands, capacities, initial_loads


class TestLoopOracleEquivalence:
    """The engine must be bit-identical to the per-item loop oracle."""

    @pytest.mark.parametrize("fallback", ["least_loaded", "skip"])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_randomized_instances(self, fallback, recompute):
        rng = np.random.default_rng(20260728)
        for _ in range(60):
            desirability, demands, capacities, initial_loads = _random_problem(rng)
            kwargs = dict(initial_loads=initial_loads, fallback=fallback, recompute=recompute)
            assert_same_result(  # loads bit-wise, not approx
                max_regret_assign(desirability, demands, capacities, **kwargs),
                max_regret_assign_loop(desirability, demands, capacities, **kwargs),
            )

    @pytest.mark.parametrize("recompute", [False, True])
    @pytest.mark.parametrize("fallback", ["least_loaded", "skip"])
    @pytest.mark.parametrize("shape", [(1, 0), (3, 0), (1, 5), (1, 1), (4, 1)], ids=str)
    def test_degenerate_shapes(self, shape, fallback, recompute):
        num_servers, num_items = shape
        rng = np.random.default_rng(7)
        desirability = -rng.random((num_servers, num_items))
        demands = rng.random(num_items) * 4.0
        capacities = rng.random(num_servers) * 3.0 + 0.1
        kwargs = dict(fallback=fallback, recompute=recompute)
        assert_same_result(
            max_regret_assign(desirability, demands, capacities, **kwargs),
            max_regret_assign_loop(desirability, demands, capacities, **kwargs),
        )

    def test_single_server_saturation(self):
        # Everything funnels through one server until it overflows.
        desirability = -np.arange(12.0)[None, :]
        demands = np.full(12, 2.0)
        for fallback in ("least_loaded", "skip"):
            for recompute in (False, True):
                kwargs = dict(fallback=fallback, recompute=recompute)
                assert_same_result(
                    max_regret_assign(desirability, demands, np.array([7.0]), **kwargs),
                    max_regret_assign_loop(desirability, demands, np.array([7.0]), **kwargs),
                )
