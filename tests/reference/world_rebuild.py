"""Test-only oracle: advance a churn epoch's world by rebuilding it.

The churn engine advances its world with delta updates
(:meth:`~repro.world.scenario.DVEScenario.apply_server_delta` /
:meth:`~repro.world.scenario.DVEScenario.apply_churn_delta`) and aliases the
new scenario's arrays as the next instance.  This oracle takes the long way:
it recomputes every delay from the delay model for the new fleet
(:meth:`~repro.world.scenario.DVEScenario.with_servers`), then for the new
population (:meth:`~repro.world.scenario.DVEScenario.with_population`), and
builds a validated :class:`~repro.core.problem.CAPInstance` over the result.
``assert_same_world`` compares the two bit for bit, and ``checked_advances``
applies that comparison inside every engine world advance while it is active.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.problem import CAPInstance
from repro.dynamics.engine import ChurnSimulator
from repro.dynamics.events import ChurnResult
from repro.dynamics.infrastructure import ServerChurnResult
from repro.topology.delay_backends import CompactDelayMatrix
from repro.world.scenario import DVEScenario


def rebuild_world(
    scenario: DVEScenario,
    churn: ChurnResult,
    server_churn: Optional[ServerChurnResult] = None,
) -> Tuple[DVEScenario, CAPInstance]:
    """Post-churn scenario and instance, rebuilt from the delay model."""
    if server_churn is not None:
        scenario = scenario.with_servers(server_churn.servers)
    scenario = scenario.with_population(churn.population)
    return scenario, CAPInstance.from_scenario(scenario)


def _assert_same_array(name: str, actual, expected) -> None:
    if expected is None:
        assert actual is None, f"{name}: expected None"
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, f"{name}: dtype {actual.dtype} != {expected.dtype}"
    assert actual.shape == expected.shape, f"{name}: shape {actual.shape} != {expected.shape}"
    assert actual.tobytes() == expected.tobytes(), f"{name}: bytes differ"


def _assert_same_delays(name: str, actual, expected) -> None:
    """Delay matrices by their table, index arrays and candidate restriction."""
    assert isinstance(actual, CompactDelayMatrix), f"{name}: expected a compact matrix"
    for part in ("node_server", "server_nodes", "client_nodes", "client_zones",
                 "zone_candidates", "zone_anchors"):
        _assert_same_array(f"{name}.{part}", getattr(actual, part), getattr(expected, part))
    assert actual.top_k == expected.top_k, f"{name}.top_k differs"
    assert actual.fill_value == expected.fill_value, f"{name}.fill_value differs"


def assert_same_world(
    actual: Tuple[DVEScenario, CAPInstance], expected: Tuple[DVEScenario, CAPInstance]
) -> None:
    """Scenario and instance arrays of ``actual`` equal ``expected`` bit for bit."""
    (scenario, instance), (ref_scenario, ref_instance) = actual, expected
    _assert_same_delays("scenario delays", scenario.client_server_delays,
                        ref_scenario.client_server_delays)
    for name in ("server_server_delays", "client_demands"):
        _assert_same_array(f"scenario {name}", getattr(scenario, name),
                           getattr(ref_scenario, name))
    _assert_same_array("scenario zones", scenario.population.zones,
                       ref_scenario.population.zones)
    _assert_same_array("scenario client nodes", scenario.population.nodes,
                       ref_scenario.population.nodes)
    _assert_same_array("scenario server nodes", scenario.servers.nodes,
                       ref_scenario.servers.nodes)
    _assert_same_array("scenario capacities", scenario.servers.capacities,
                       ref_scenario.servers.capacities)
    _assert_same_delays("instance delays", instance.client_server_delays,
                        ref_instance.client_server_delays)
    for name in ("server_server_delays", "client_zones", "client_demands", "server_capacities"):
        _assert_same_array(f"instance {name}", getattr(instance, name),
                           getattr(ref_instance, name))
    assert instance.delay_bound == ref_instance.delay_bound, "instance delay bound differs"
    assert instance.num_zones == ref_instance.num_zones, "instance zone count differs"


@contextlib.contextmanager
def checked_advances() -> Iterator[List[bool]]:
    """Check every :meth:`ChurnSimulator._advance_world` call against the oracle.

    While active, each call's result must equal :func:`rebuild_world` on the
    same inputs (:func:`assert_same_world`).  Yields a list that gets one
    entry per checked call: whether the state's instance mirrored its
    scenario's arrays when the call was made.
    """
    checked: List[bool] = []
    advance = ChurnSimulator._advance_world

    def checked_advance(self, state, churn, server_churn=None):
        mirrored = state.instance.mirrors_arrays_of(state.scenario)
        result = advance(self, state, churn, server_churn)
        assert_same_world(result, rebuild_world(state.scenario, churn, server_churn))
        checked.append(mirrored)
        return result

    ChurnSimulator._advance_world = checked_advance
    try:
        yield checked
    finally:
        ChurnSimulator._advance_world = advance
