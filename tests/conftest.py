"""Shared fixtures for the test suite.

The expensive objects (topologies, scenarios) are session-scoped so the whole
suite builds them once; individual tests must never mutate them (all library
objects are immutable dataclasses, so accidental mutation raises).
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np
import pytest

import repro.baselines  # noqa: F401  (registers baseline solvers for registry tests)
import repro.core.regret as regret
from repro.core.problem import CAPInstance
from repro.topology.brite import BriteConfig
from repro.topology.delay_backends import (
    CompactDelayMatrix,
    _candidates_from_anchors,
    zone_anchor_nodes,
)
from repro.topology.graph import Topology
from repro.topology.waxman import _waxman_stack
from repro.utils.rng import as_generator
from repro.world.scenario import DVEConfig, DVEScenario, build_scenario
from tests.reference.measurement_full import checked_measures
from tests.reference.regret_loop import assert_same_result, max_regret_assign_loop
from tests.reference.world_rebuild import checked_advances

#: A small hierarchical topology configuration used throughout the tests —
#: same generative structure as the paper's 500-node substrate, scaled down
#: so the suite stays fast.
SMALL_BRITE = BriteConfig(num_as=6, routers_per_as=10)


def make_small_config(**overrides) -> DVEConfig:
    """A small-but-realistic DVE configuration for tests."""
    params = dict(
        num_servers=5,
        num_zones=12,
        num_clients=150,
        total_capacity_mbps=100.0,
        min_server_capacity_mbps=5.0,
        topology=SMALL_BRITE,
    )
    params.update(overrides)
    return DVEConfig(**params)


@pytest.fixture(scope="session")
def small_config() -> DVEConfig:
    """Session-wide small configuration (5 servers, 12 zones, 150 clients)."""
    return make_small_config()


@pytest.fixture(scope="session")
def small_scenario(small_config: DVEConfig) -> DVEScenario:
    """Session-wide materialised small scenario."""
    return build_scenario(small_config, seed=7)


@pytest.fixture(scope="session")
def small_instance(small_scenario: DVEScenario) -> CAPInstance:
    """CAP instance of the small scenario."""
    return CAPInstance.from_scenario(small_scenario)


def flat_waxman(num_nodes: int, seed: int) -> Topology:
    """A flat Waxman topology: one AS's router-level draw on its own."""
    positions, edges, latencies = _waxman_stack(num_nodes, [as_generator(seed)])
    return Topology(positions=positions[0], edges=edges, latencies=latencies)


def make_tiny_instance(
    delay_bound: float = 100.0,
    capacities=(1000.0, 1000.0, 1000.0),
) -> CAPInstance:
    """A hand-crafted 3-server / 4-zone / 8-client instance with known structure.

    * Zone 0's clients (0, 1) are close only to server 0.
    * Zone 1's clients (2, 3) are close only to server 1.
    * Zone 2's clients (4, 5) are close only to server 2.
    * Zone 3's clients (6, 7) are 120 ms from server 0, 60 ms from server 1 and
      far from server 2 — so if zone 3 is hosted by server 0 they miss the
      100 ms bound directly but can reach it by forwarding through server 1
      (60 + 30 = 90 ms).
    """
    client_server_delays = np.array(
        [
            [50.0, 300.0, 300.0],
            [50.0, 300.0, 300.0],
            [300.0, 50.0, 300.0],
            [300.0, 50.0, 300.0],
            [300.0, 300.0, 50.0],
            [300.0, 300.0, 50.0],
            [120.0, 60.0, 300.0],
            [120.0, 60.0, 300.0],
        ]
    )
    server_server_delays = np.array(
        [
            [0.0, 30.0, 40.0],
            [30.0, 0.0, 50.0],
            [40.0, 50.0, 0.0],
        ]
    )
    client_zones = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    client_demands = np.full(8, 10.0)
    return CAPInstance(
        client_server_delays=client_server_delays,
        server_server_delays=server_server_delays,
        client_zones=client_zones,
        client_demands=client_demands,
        server_capacities=np.asarray(capacities, dtype=float),
        delay_bound=delay_bound,
        num_zones=4,
    )


def make_wide_sparse_instance(order: str = "F") -> CAPInstance:
    """A synthetic candidate-restricted instance wide enough for row-chunked passes.

    2,500 clients in 50 zones, 96 servers on 30 nodes and 64 candidates per
    zone.  Every delay is a multiple of 10 ms, so candidate delays, refined
    costs and regrets tie often, and many clients share a node.  ``order``
    is the memory order of the node→server table (the sparse backend's own
    table is Fortran-ordered).
    """
    rng = np.random.default_rng(0)
    num_nodes, num_servers, num_zones, num_clients = 30, 96, 50, 2500
    node_server = np.asarray(
        10.0 * rng.integers(1, 11, size=(num_nodes, num_servers)), order=order
    )
    mesh = 10.0 * rng.integers(0, 6, size=(num_servers, num_servers))
    mesh = np.triu(mesh, 1) + np.triu(mesh, 1).T
    client_nodes = rng.integers(0, num_nodes, num_clients)
    client_zones = rng.integers(0, num_zones, num_clients)
    anchors = zone_anchor_nodes(client_nodes, client_zones, num_zones, num_nodes)
    delays = CompactDelayMatrix(
        server_nodes=np.arange(num_servers),
        node_server=node_server,
        client_nodes=client_nodes,
        client_zones=client_zones,
        zone_candidates=_candidates_from_anchors(node_server, anchors, 64),
        zone_anchors=anchors,
        top_k=64,
    )
    return CAPInstance(
        client_server_delays=delays,
        server_server_delays=mesh,
        client_zones=client_zones,
        client_demands=np.ones(num_clients),
        server_capacities=np.full(num_servers, 1000.0),
        delay_bound=60.0,
        num_zones=num_zones,
    )


@pytest.fixture(scope="session")
def sparse_100k_instance() -> CAPInstance:
    """The solver corpus's 100k-client sparse top-64 instance, built once per session."""
    from tests.golden.solver_corpus import sparse_instance

    return sparse_instance()


@pytest.fixture()
def tiny_instance() -> CAPInstance:
    """Fresh hand-crafted tiny instance (cheap to build, so function-scoped)."""
    return make_tiny_instance()


@pytest.fixture()
def tight_instance() -> CAPInstance:
    """Tiny instance whose capacities only just fit the zone demands.

    Each zone demands 20 (two clients × 10) and each server can hold at most
    two zones (45 < 3 × 20), so capacity-aware placement becomes observable
    while the instance stays feasible overall (135 > 80).
    """
    return make_tiny_instance(capacities=(45.0, 45.0, 45.0))


@pytest.fixture()
def overloaded_instance() -> CAPInstance:
    """Tiny instance whose total demand (80) exceeds the total capacity (75).

    Used to exercise the best-effort fallbacks and the ``capacity_exceeded``
    flags of the heuristics.
    """
    return make_tiny_instance(capacities=(25.0, 25.0, 25.0))


#: Modules that import the max-regret engine by name, and the entry points
#: each one imports: the placements of GreZ, GreC and the regret arbiter.
_REGRET_CALL_SITES = {
    "repro.core.grez": ("max_regret_assign", "max_regret_assign_candidates"),
    "repro.core.grec": ("max_regret_assign", "max_regret_assign_candidates"),
    "repro.core.arbitration": ("max_regret_assign",),
}


@pytest.fixture()
def regret_oracle_spy(monkeypatch):
    """Check every max-regret placement a solve makes against the loop oracle.

    Patches the engine names each solver module imports, so every call also
    runs ``tests/reference/regret_loop.py`` on the same inputs and must agree
    on ``item_to_server``, bit-identical loads and the overflow flag.  The
    candidate-list entry point is checked on the full desirability matrix its
    ``row_provider`` implies.  Returns the list of checked entry-point names,
    one per call, so a test can assert the placements it meant to cover ran.
    """
    checked: list = []

    def oracle_args(name: str, arguments: dict) -> dict:
        if name == "max_regret_assign":
            return arguments
        num_items = np.asarray(arguments["candidate_desirability"]).shape[0]
        rows = arguments["row_provider"](np.arange(num_items))
        shared = ("demands", "capacities", "initial_loads", "fallback", "fallback_allowed")
        return {
            "desirability": np.asarray(rows, dtype=np.float64).T,
            **{key: arguments[key] for key in shared if key in arguments},
        }

    def spy(name: str):
        engine = getattr(regret, name)
        signature = inspect.signature(engine)

        def checked_call(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            expected = max_regret_assign_loop(**oracle_args(name, arguments))
            result = engine(*args, **kwargs)
            assert_same_result(result, expected)
            checked.append(name)
            return result

        return checked_call

    for module_name, names in _REGRET_CALL_SITES.items():
        module = importlib.import_module(module_name)
        for name in names:
            monkeypatch.setattr(module, name, spy(name))
    return checked


@pytest.fixture()
def advance_oracle_spy():
    """Check every engine world advance against the rebuild oracle.

    Wraps :meth:`ChurnSimulator._advance_world` for the test's duration, so
    each call also rebuilds the post-churn world with
    ``tests/reference/world_rebuild.py`` and must agree on every scenario and
    instance array, bit for bit.  Yields a list with one entry per checked
    call: whether the state's instance mirrored its scenario's arrays (the
    unvalidated fast path) when the call was made.
    """
    with checked_advances() as checked:
        yield checked


@pytest.fixture()
def measure_oracle_spy():
    """Check every engine measurement point against its full recompute.

    Wraps the engine's ``measured_pqos``, ``measured_utilization`` and
    ``carried_qos_count`` for the test's duration, so each call also runs
    its full-recompute equivalent from ``tests/reference/measurement_full.py``
    and must agree bit for bit.  Yields a list with the entry point's name
    once per checked call, so a test can assert that carried points ran.
    """
    with checked_measures() as checked:
        yield checked
