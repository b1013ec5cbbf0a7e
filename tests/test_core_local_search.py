"""Tests for repro.core.local_search — the sweep refiner of assignments."""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment, server_loads
from repro.core.costs import delays_to_targets
from repro.core import local_search
from repro.core.local_search import (
    LocalSearchResult,
    _repair_contacts_sweep,
    _repair_zones_sweep,
    _zone_move_aggregates,
    warm_start_refine,
)
from repro.core.problem import CAPInstance
from repro.core.two_phase import solve_cap
from repro.core.validation import validate_assignment
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.world.scenario import build_scenario
from tests.conftest import make_small_config, make_tiny_instance
from tests.reference.contact_sweep_full import repair_contacts_sweep_full
from tests.reference.zone_sweep_full import _zone_move_aggregates as oracle_zone_move_aggregates
from tests.reference.zone_sweep_full import repair_zones_sweep_full


def _bad_assignment(instance) -> Assignment:
    """A deliberately poor but feasible assignment: everything on server 2."""
    zone_to_server = np.full(instance.num_zones, 2, dtype=np.int64)
    contacts = np.full(instance.num_clients, 2, dtype=np.int64)
    return Assignment(zone_to_server=zone_to_server, contact_of_client=contacts, algorithm="bad")


#: Runs a test with and without the zone-move sweep.
zone_moves = pytest.mark.parametrize("consider_zone_moves", [False, True])


class TestWarmStartRefine:
    """The warm-start sweep repair of a carried-over assignment."""

    @zone_moves
    def test_improves_bad_start(self, tiny_instance, consider_zone_moves):
        start = _bad_assignment(tiny_instance)
        result = warm_start_refine(tiny_instance, start, consider_zone_moves=consider_zone_moves)
        assert isinstance(result, LocalSearchResult)
        assert result.final_pqos > result.initial_pqos
        assert result.iterations > 0
        assert result.assignment.pqos(tiny_instance) == result.final_pqos
        assert validate_assignment(tiny_instance, result.assignment).ok

    def test_never_worsens_and_records_metadata(self, tiny_instance):
        start = _bad_assignment(tiny_instance)
        result = warm_start_refine(tiny_instance, start)
        assert result.final_pqos >= result.initial_pqos
        assert result.assignment.algorithm == "bad+ws"
        assert result.assignment.metadata["warm_start_iterations"] == result.iterations

    @pytest.mark.parametrize("algorithm", ["grez-grec", "ranz-virc"])
    @zone_moves
    def test_never_worsens_a_solved_start(self, small_instance, consider_zone_moves, algorithm):
        start = solve_cap(small_instance, algorithm, seed=0)
        result = warm_start_refine(
            small_instance, start, max_iterations=20, consider_zone_moves=consider_zone_moves
        )
        assert result.initial_pqos == start.pqos(small_instance)
        assert result.final_pqos >= result.initial_pqos
        assert validate_assignment(small_instance, result.assignment).ok

    @zone_moves
    def test_stays_feasible_on_tight_capacities(self, tight_instance, consider_zone_moves):
        start = solve_cap(tight_instance, "ranz-virc", seed=1)
        assert start.is_capacity_feasible(tight_instance)
        result = warm_start_refine(tight_instance, start, consider_zone_moves=consider_zone_moves)
        assert result.iterations > 0
        assert result.assignment.is_capacity_feasible(tight_instance)
        assert not result.assignment.capacity_exceeded

    @pytest.mark.parametrize("fixture", ["tight_instance", "overloaded_instance"])
    @zone_moves
    def test_pushes_no_server_over_capacity(self, request, fixture, consider_zone_moves):
        """From an overloaded start no move adds load to a server beyond its
        capacity; the overloaded server only sheds load."""
        instance = request.getfixturevalue(fixture)
        start = _bad_assignment(instance)
        result = warm_start_refine(instance, start, consider_zone_moves=consider_zone_moves)
        assert result.iterations > 0
        before = server_loads(instance, start.zone_to_server, start.contact_of_client)
        after = server_loads(
            instance, result.assignment.zone_to_server, result.assignment.contact_of_client
        )
        assert (after <= np.maximum(instance.server_capacities + 1e-9, before)).all()

    @zone_moves
    def test_iteration_budget_honoured(self, tiny_instance, consider_zone_moves):
        start = _bad_assignment(tiny_instance)
        result = warm_start_refine(
            tiny_instance, start, max_iterations=1, consider_zone_moves=consider_zone_moves
        )
        assert result.iterations == 1

    @zone_moves
    def test_fixed_point_on_already_optimal_tiny_instance(
        self, tiny_instance, consider_zone_moves
    ):
        start = solve_cap(tiny_instance, "grez-grec", seed=0)
        assert start.pqos(tiny_instance) == 1.0
        result = warm_start_refine(tiny_instance, start, consider_zone_moves=consider_zone_moves)
        assert result.iterations == 0
        np.testing.assert_array_equal(result.assignment.zone_to_server, start.zone_to_server)
        np.testing.assert_array_equal(
            result.assignment.contact_of_client, start.contact_of_client
        )

    def test_capacity_flag_recomputed(self, tiny_instance):
        """A stale capacity_exceeded flag is cleared when loads actually fit."""
        start = Assignment(
            zone_to_server=_bad_assignment(tiny_instance).zone_to_server,
            contact_of_client=_bad_assignment(tiny_instance).contact_of_client,
            algorithm="bad",
            capacity_exceeded=True,  # stale: server 2 easily fits everything
        )
        result = warm_start_refine(tiny_instance, start)
        assert not result.assignment.capacity_exceeded


def _assert_matches_sweep_oracles(instance, start, max_iterations=200, consider_zone_moves=True):
    """``warm_start_refine`` replays the two frozen sweep oracles run in its
    order: the zone sweep (if enabled), then the contact sweep on the rest of
    the move budget.  Same moves, same move count, same delay bits."""
    zones = start.zone_to_server.copy()
    contacts = start.contact_of_client.copy()
    delays = delays_to_targets(instance, zones, contacts)
    applied = 0
    if consider_zone_moves:
        applied += repair_zones_sweep_full(instance, zones, contacts, max_iterations, delays=delays)
    if applied < max_iterations:
        applied += repair_contacts_sweep_full(
            instance, zones, contacts, max_iterations - applied, delays=delays
        )
    result = warm_start_refine(
        instance, start, max_iterations=max_iterations, consider_zone_moves=consider_zone_moves
    )
    assert result.iterations == applied
    np.testing.assert_array_equal(result.assignment.zone_to_server, zones)
    np.testing.assert_array_equal(result.assignment.contact_of_client, contacts)
    assert result.final_pqos == np.count_nonzero(delays <= instance.delay_bound) / len(delays)
    return result


class TestWarmStartOracleEquivalence:
    """The whole refiner against the zone- and contact-sweep oracles composed."""

    @zone_moves
    @pytest.mark.parametrize("fixture", ["tiny_instance", "tight_instance", "overloaded_instance"])
    def test_bad_start(self, request, fixture, consider_zone_moves):
        instance = request.getfixturevalue(fixture)
        result = _assert_matches_sweep_oracles(
            instance, _bad_assignment(instance), consider_zone_moves=consider_zone_moves
        )
        assert result.iterations > 0

    @pytest.mark.parametrize("max_iterations", [1, 3])
    def test_move_budget_shared_by_both_sweeps(self, tiny_instance, max_iterations):
        result = _assert_matches_sweep_oracles(
            tiny_instance, _bad_assignment(tiny_instance), max_iterations=max_iterations
        )
        assert result.iterations <= max_iterations

    @pytest.mark.parametrize("max_iterations", [6, 8])
    def test_contact_sweep_gets_the_remaining_budget(self, max_iterations):
        """On this world the zone sweep makes 5 moves and the contact sweep 8
        more, so the budget binds after the zone sweep is done."""
        config = make_small_config(num_clients=100, num_zones=8)
        instance = CAPInstance.from_scenario(build_scenario(config, seed=2))
        start = solve_cap(instance, "ranz-virc", seed=2)
        result = _assert_matches_sweep_oracles(instance, start, max_iterations=max_iterations)
        assert result.iterations == max_iterations

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ["ranz-virc", "grez-grec"])
    def test_generated_scenarios(self, seed, algorithm):
        config = make_small_config(num_clients=100, num_zones=8)
        instance = CAPInstance.from_scenario(build_scenario(config, seed=seed))
        start = solve_cap(instance, algorithm, seed=seed)
        _assert_matches_sweep_oracles(instance, start, max_iterations=30)


# ---------------------------------------------------------------------- #
# Zone-move sweep vs the frozen score-every-zone oracle.
# ---------------------------------------------------------------------- #
def pinned(max_examples: int) -> settings:
    """Seed-pinned hypothesis settings: the same examples on every run."""
    return settings(
        derandomize=True, deadline=None, database=None, max_examples=max_examples
    )


@lru_cache(maxsize=None)
def _scenario_instance(backend: str) -> CAPInstance:
    """A small world with empty zones (90 clients over 30 zones, 5 servers)."""
    config = make_small_config(
        num_zones=30, num_clients=90, delay_backend=backend, sparse_top_k=2
    )
    return CAPInstance.from_scenario(build_scenario(config, seed=5))


def _random_dense_instance(rng, coarse: bool = True) -> CAPInstance:
    """Random dense instance; ``coarse`` delays are multiples of 10 ms, so
    clients often sit exactly on the bound, otherwise they are fractional."""
    num_servers = int(rng.integers(2, 7))
    num_zones = int(rng.integers(1, 12))
    num_clients = int(rng.integers(1, 50))
    server_delays = rng.integers(0, 5, size=(num_servers, num_servers)) * 10.0
    server_delays = server_delays + server_delays.T
    if rng.random() < 0.7:
        np.fill_diagonal(server_delays, 0.0)
    return CAPInstance(
        client_server_delays=(
            rng.integers(0, 12, size=(num_clients, num_servers)) * 10.0
            if coarse
            else rng.random((num_clients, num_servers)) * 120.0
        ),
        server_server_delays=server_delays,
        client_zones=rng.integers(0, num_zones, size=num_clients),
        client_demands=rng.choice([0.5, 1.0, 2.0], size=num_clients),
        server_capacities=np.ones(num_servers),
        delay_bound=float(rng.integers(2, 12) * 10),
        num_zones=num_zones,
    )


def _sweep_case(backend: str, seed: int):
    """``(instance, zone_to_server, contacts, max_iterations, max_sweeps)``."""
    rng = np.random.default_rng(seed)
    if backend == "random-dense":
        instance = _random_dense_instance(rng)
    else:
        instance = _scenario_instance(backend)
        clients = rng.integers(0, instance.num_clients, size=2)
        servers = rng.integers(0, instance.num_servers, size=2)
        direct = instance.delay_pairs(clients, servers) + np.diag(
            instance.server_server_delays
        )[servers]
        # Either a bound some client meets exactly, or one from the delay range.
        bound = direct[0] if rng.random() < 0.5 else float(rng.uniform(20.0, 400.0))
        instance = dataclasses.replace(instance, delay_bound=max(float(bound), 1.0))
    num_servers, num_zones = instance.num_servers, instance.num_zones

    start = rng.choice(["server-0", "random", "solved"])
    if start == "server-0":
        zone_to_server = np.zeros(num_zones, dtype=np.int64)
    elif start == "random":
        zone_to_server = rng.integers(0, num_servers, size=num_zones)
    else:
        zone_to_server = solve_cap(instance, "grez-grec", seed=0).zone_to_server.copy()
        shuffled = rng.random(num_zones) < 0.3
        zone_to_server[shuffled] = rng.integers(0, num_servers, size=int(shuffled.sum()))
    contacts = zone_to_server[instance.client_zones].copy()
    forwarded = rng.random(instance.num_clients) < rng.choice([0.0, 0.3])
    contacts[forwarded] = rng.integers(0, num_servers, size=int(forwarded.sum()))

    # Capacity regimes: loose, tight around the start loads (admissions
    # compete for the same headroom), or random (some servers overloaded).
    loads = server_loads(instance, zone_to_server, contacts)
    zone_demands = instance.zone_demands()
    regime = rng.choice(["loose", "tight", "random"])
    if regime == "loose":
        capacities = np.full(num_servers, 4.0 * instance.total_demand() + 1.0)
    elif regime == "tight":
        headroom = rng.random(num_servers) * 1.5 * max(float(zone_demands.max()), 1.0)
        capacities = loads + headroom
    else:
        capacities = rng.random(num_servers) * 2.0 * instance.total_demand() / num_servers
    instance = dataclasses.replace(instance, server_capacities=np.maximum(capacities, 0.25))

    max_iterations = int(rng.choice([1, 2, 3, 1000]))
    max_sweeps = int(rng.choice([1, 2, 20]))
    return instance, zone_to_server, contacts, max_iterations, max_sweeps


class TestZoneSweepOracle:
    """``_repair_zones_sweep`` scores only the zones with a member over the
    bound; the frozen oracle scores every zone.  Both must apply the same
    moves, leave the same delay bits and report the same move count."""

    @pinned(150)
    @given(
        backend=st.sampled_from(["random-dense", "dense", "sparse"]),
        seed=st.integers(0, 2**32 - 1),
        seeded=st.booleans(),
    )
    def test_matches_full_sweep(self, backend, seed, seeded):
        instance, zone_to_server, contacts, max_iterations, max_sweeps = _sweep_case(
            backend, seed
        )
        results = []
        for sweep in (_repair_zones_sweep, repair_zones_sweep_full):
            zones, conts = zone_to_server.copy(), contacts.copy()
            delays = delays_to_targets(instance, zones, conts) if seeded else None
            applied = sweep(
                instance, zones, conts, max_iterations, max_sweeps=max_sweeps, delays=delays
            )
            if delays is None:
                delays = delays_to_targets(instance, zones, conts)
            results.append((applied, zones, conts, delays))
        (applied, zones, conts, delays), (o_applied, o_zones, o_conts, o_delays) = results
        assert applied == o_applied
        np.testing.assert_array_equal(zones, o_zones)
        np.testing.assert_array_equal(conts, o_conts)
        assert delays.tobytes() == o_delays.tobytes()
        if seeded:
            fresh = delays_to_targets(instance, zones, conts)
            assert delays.tobytes() == fresh.tobytes()

    def test_skips_a_move_whose_headroom_was_taken(self):
        """Zones 1 and 3 both want server 1, which has room for one zone."""
        instance = make_tiny_instance(capacities=(45.0, 25.0, 100.0))
        start = _bad_assignment(instance)
        for max_sweeps in (1, 20):
            results = []
            for sweep in (_repair_zones_sweep, repair_zones_sweep_full):
                zones = start.zone_to_server.copy()
                conts = start.contact_of_client.copy()
                results.append((sweep(instance, zones, conts, 100, max_sweeps), zones, conts))
            assert results[0][0] == results[1][0]
            np.testing.assert_array_equal(results[0][1], results[1][1])
            np.testing.assert_array_equal(results[0][2], results[1][2])
        # One sweep: zone 1 takes server 1 first (zone order breaks the gain
        # tie) and zone 3's claim on it is skipped.
        assert results[0][1][1] == 1
        assert results[0][1][3] != 1

    def test_every_client_within_bound_applies_nothing(self, tiny_instance):
        start = solve_cap(tiny_instance, "grez-grec", seed=0)
        zones = start.zone_to_server.copy()
        conts = start.contact_of_client.copy()
        assert (delays_to_targets(tiny_instance, zones, conts) <= tiny_instance.delay_bound).all()
        assert _repair_zones_sweep(tiny_instance, zones, conts, 100) == 0
        np.testing.assert_array_equal(zones, start.zone_to_server)


class TestZoneMoveAggregates:
    @pinned(60)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_all_zone_aggregates_match_the_oracle_bitwise(self, seed):
        """Every client as a member: the dense member-gather path builds every
        zone's row, bit for bit as the oracle's ``np.add.at`` scatter."""
        instance = _random_dense_instance(np.random.default_rng(seed), coarse=False)
        within, excess = _zone_move_aggregates(
            instance,
            np.arange(instance.num_clients),
            instance.client_zones,
            instance.num_zones,
        )
        _, o_within, o_excess, _ = oracle_zone_move_aggregates(instance)
        assert within.tobytes() == o_within.tobytes()
        assert excess.tobytes() == o_excess.tobytes()


# ---------------------------------------------------------------------- #
# Contact sweep vs the frozen rescan-every-client oracle.
# ---------------------------------------------------------------------- #
def _run_both_contact_sweeps(
    instance, zone_to_server, contacts, max_iterations, max_sweeps=50, delays=None, loads=None
) -> int:
    """Run the engine's contact sweep in place and the oracle on copies; both
    must leave the same contacts, the same delay bits and the same move count.
    Loads handed to the engine's sweep must be the oracle's own reduction."""
    if loads is not None:
        assert loads.tobytes() == server_loads(instance, zone_to_server, contacts).tobytes()
    o_contacts = contacts.copy()
    o_delays = None if delays is None else delays.copy()
    o_applied = repair_contacts_sweep_full(
        instance, zone_to_server.copy(), o_contacts, max_iterations, max_sweeps, o_delays
    )
    applied = _repair_contacts_sweep(
        instance, zone_to_server, contacts, max_iterations, max_sweeps, delays, loads
    )
    assert applied == o_applied
    np.testing.assert_array_equal(contacts, o_contacts)
    if delays is not None:
        assert delays.tobytes() == o_delays.tobytes()
    return applied


def _contention_case(seed: int):
    """``(instance, zone_to_server, contacts)`` with little headroom per server.

    Each server has room for zero to three more forwarded clients, so
    over-bound clients that want the same server compete for it, and the
    ones refused in one sweep retry in the next.
    """
    rng = np.random.default_rng(seed)
    instance = _random_dense_instance(rng, coarse=bool(rng.random() < 0.5))
    num_servers = instance.num_servers
    zone_to_server = rng.integers(0, num_servers, size=instance.num_zones)
    contacts = zone_to_server[instance.client_zones].copy()
    forwarded = rng.random(instance.num_clients) < 0.3
    contacts[forwarded] = rng.integers(0, num_servers, size=int(forwarded.sum()))
    loads = server_loads(instance, zone_to_server, contacts)
    headroom = rng.integers(0, 4, size=num_servers) * 2.0 * instance.client_demands.max()
    capacities = np.maximum(loads + headroom, 0.25)
    return dataclasses.replace(instance, server_capacities=capacities), zone_to_server, contacts


def _first_sweep_claimants(instance, zone_to_server, contacts) -> int:
    """Over-bound clients with a strictly improving contact that has room at the start."""
    delays = delays_to_targets(instance, zone_to_server, contacts)
    loads = server_loads(instance, zone_to_server, contacts)
    over = np.flatnonzero(delays > instance.delay_bound)
    targets = zone_to_server[instance.client_zones[over]]
    options = instance.delay_rows(over) + instance.server_server_delays.T[targets]
    demand2 = 2.0 * instance.client_demands[over]
    fits = (np.arange(instance.num_servers) == targets[:, None]) | (
        loads + demand2[:, None] <= instance.server_capacities + 1e-9
    )
    return int((fits & (options < delays[over, None])).any(axis=1).sum())


class TestContactSweepOracle:
    """``_repair_contacts_sweep`` against its frozen rescan-every-client copy."""

    def test_figure4_world_warm_start_epochs(self, monkeypatch):
        """Every contact sweep of 60 warm-start epochs on the figure-4 world."""
        applied = []

        def checked_sweep(instance, zone_to_server, contacts, max_iterations, *args, **kwargs):
            applied.append(
                _run_both_contact_sweeps(
                    instance, zone_to_server, contacts, max_iterations, *args, **kwargs
                )
            )
            return applied[-1]

        monkeypatch.setattr(local_search, "_repair_contacts_sweep", checked_sweep)
        config = config_from_label("30s-160z-2000c-1000cp", correlation=0.0)
        simulator = ChurnSimulator(
            scenario=build_scenario(config, seed=0),
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=20, num_leaves=20, num_moves=20),
            seed=3,
            policy="warm_start",
        )
        assert len(simulator.run(60)) == 60
        assert len(applied) == 60
        assert sum(applied) > 0

    @pinned(150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        seeded=st.booleans(),
        max_iterations=st.sampled_from([1, 2, 5, 1000]),
        max_sweeps=st.sampled_from([1, 2, 50]),
    )
    def test_tight_capacity_instances(self, seed, seeded, max_iterations, max_sweeps):
        instance, zone_to_server, contacts = _contention_case(seed)
        delays = delays_to_targets(instance, zone_to_server, contacts) if seeded else None
        _run_both_contact_sweeps(
            instance, zone_to_server, contacts, max_iterations, max_sweeps, delays
        )
        if seeded:
            fresh = delays_to_targets(instance, zone_to_server, contacts)
            assert delays.tobytes() == fresh.tobytes()

    def test_drawn_instances_force_contention_and_more_sweeps(self):
        """The drawn cases reach what a partial rescan can get wrong: claimants
        refused in the first sweep, and moves applied after it."""
        contended = multi_sweep = 0
        for seed in range(60):
            instance, zone_to_server, contacts = _contention_case(seed)
            one_sweep = repair_contacts_sweep_full(
                instance, zone_to_server.copy(), contacts.copy(), 1000, max_sweeps=1
            )
            all_sweeps = repair_contacts_sweep_full(
                instance, zone_to_server.copy(), contacts.copy(), 1000
            )
            contended += one_sweep < _first_sweep_claimants(instance, zone_to_server, contacts)
            multi_sweep += all_sweeps > one_sweep
        assert contended >= 20 and multi_sweep >= 20
