"""Tests for repro.core.regret — the shared max-regret greedy machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.regret import (
    BACKENDS,
    DEFAULT_BACKEND,
    max_regret_assign,
    max_regret_assign_candidates,
    regret_order,
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


class TestMaxRegretAssign:
    def test_prefers_most_desirable_server(self):
        desirability = np.array([[0.0, -5.0], [-3.0, 0.0]])
        result = max_regret_assign(
            desirability, demands=np.ones(2), capacities=np.full(2, 10.0)
        )
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
        result = max_regret_assign(
            desirability, demands=np.ones(20), capacities=np.full(4, 100.0)
        )
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
            max_regret_assign(
                np.zeros((2, 1)), np.ones(1), np.ones(2), initial_loads=np.ones(3)
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            max_regret_assign(np.zeros((2, 1)), np.ones(1), np.ones(2), backend="gpu")

    def test_default_backend_is_registered(self):
        assert DEFAULT_BACKEND in BACKENDS

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("recompute", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_finite_desirability_rejected(self, bad, recompute, backend):
        # NaN used to place differently on the two backends ([0 1 2] vs
        # [0 2 1] for this matrix); every non-finite value is now an error.
        desirability = np.array([[-1.0, -2.0, bad], [-3.0, bad, -1.0], [-2.0, -1.0, -5.0]])
        with pytest.raises(ValueError, match="finite"):
            max_regret_assign(
                desirability, np.ones(3), np.ones(3), recompute=recompute, backend=backend
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_candidate_desirability_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            max_regret_assign_candidates(
                np.array([[0, 1]]), np.array([[-1.0, bad]]), 2, np.ones(1), np.ones(2),
                lambda items: np.zeros((items.size, 2)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_provider_rows_rejected(self, bad):
        # Both candidates are full, so the item needs the provider's full row.
        with pytest.raises(ValueError, match="finite"):
            max_regret_assign_candidates(
                np.array([[0, 1]]), np.array([[-1.0, -2.0]]), 3, np.ones(1),
                np.array([0.5, 0.5, 2.0]),
                lambda items: np.array([[-1.0, -2.0, bad]]),
            )


class TestDynamicRegret:
    """Behaviour of the feasibility-aware ``recompute=True`` mode (both backends)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_urgent_item_placed_before_higher_static_regret(self, backend):
        # Item 0 has the larger static regret, but item 1's only feasible
        # server is server 0 (its demand exceeds server 1's capacity), which
        # makes it urgent under dynamic regret: it claims server 0 first and
        # item 0 falls back to its second choice.
        desirability = np.array([[0.0, 0.0], [-10.0, -1.0]])
        demands = np.array([2.0, 3.0])
        capacities = np.array([3.0, 2.0])
        static = max_regret_assign(
            desirability, demands, capacities, recompute=False, backend=backend
        )
        dynamic = max_regret_assign(
            desirability, demands, capacities, recompute=True, backend=backend
        )
        np.testing.assert_array_equal(static.item_to_server, [0, 1])
        assert static.capacity_exceeded  # item 1 fits nowhere after item 0
        np.testing.assert_array_equal(dynamic.item_to_server, [1, 0])
        assert not dynamic.capacity_exceeded

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_items_without_feasible_server_fall_back_last(self, backend):
        desirability = np.array([[0.0, -1.0], [-2.0, 0.0]])
        result = max_regret_assign(
            desirability,
            demands=np.array([50.0, 1.0]),
            capacities=np.array([10.0, 10.0]),
            recompute=True,
            fallback="skip",
            backend=backend,
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


class TestBackendEquivalence:
    """The vectorized backend must be bit-identical to the loop spec."""

    @pytest.mark.parametrize("fallback", ["least_loaded", "skip"])
    @pytest.mark.parametrize("recompute", [False, True])
    def test_randomized_instances(self, fallback, recompute):
        rng = np.random.default_rng(20260728)
        for _ in range(60):
            desirability, demands, capacities, initial_loads = _random_problem(rng)
            results = {
                backend: max_regret_assign(
                    desirability,
                    demands,
                    capacities,
                    initial_loads=initial_loads,
                    fallback=fallback,
                    recompute=recompute,
                    backend=backend,
                )
                for backend in BACKENDS
            }
            loop, vec = results["loop"], results["vectorized"]
            np.testing.assert_array_equal(vec.item_to_server, loop.item_to_server)
            np.testing.assert_array_equal(vec.loads, loop.loads)  # bit-wise, not approx
            assert vec.capacity_exceeded == loop.capacity_exceeded

    @pytest.mark.parametrize("recompute", [False, True])
    @pytest.mark.parametrize("fallback", ["least_loaded", "skip"])
    @pytest.mark.parametrize(
        "shape", [(1, 0), (3, 0), (1, 5), (1, 1), (4, 1)], ids=str
    )
    def test_degenerate_shapes(self, shape, fallback, recompute):
        num_servers, num_items = shape
        rng = np.random.default_rng(7)
        desirability = -rng.random((num_servers, num_items))
        demands = rng.random(num_items) * 4.0
        capacities = rng.random(num_servers) * 3.0 + 0.1
        results = {
            backend: max_regret_assign(
                desirability,
                demands,
                capacities,
                fallback=fallback,
                recompute=recompute,
                backend=backend,
            )
            for backend in BACKENDS
        }
        loop, vec = results["loop"], results["vectorized"]
        np.testing.assert_array_equal(vec.item_to_server, loop.item_to_server)
        np.testing.assert_array_equal(vec.loads, loop.loads)
        assert vec.capacity_exceeded == loop.capacity_exceeded

    def test_single_server_saturation(self):
        # Everything funnels through one server until it overflows.
        desirability = -np.arange(12.0)[None, :]
        demands = np.full(12, 2.0)
        for fallback in ("least_loaded", "skip"):
            for recompute in (False, True):
                results = [
                    max_regret_assign(
                        desirability,
                        demands,
                        np.array([7.0]),
                        fallback=fallback,
                        recompute=recompute,
                        backend=backend,
                    )
                    for backend in BACKENDS
                ]
                np.testing.assert_array_equal(
                    results[0].item_to_server, results[1].item_to_server
                )
                np.testing.assert_array_equal(results[0].loads, results[1].loads)
