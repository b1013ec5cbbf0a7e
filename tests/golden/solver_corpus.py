"""Golden digests of the max-regret placements behind GreZ, GreC and the regret arbiter.

Each run solves one world and hashes, with sha256:

* ``zone_to_server`` and ``contact_of_client`` of the final assignment, and
  its measured per-server ``loads`` (float64 bit patterns), plus the
  ``capacity_exceeded`` flag;
* ``placements`` — every :class:`~repro.core.regret.RegretResult` the
  placement engine returned during the run, in call order: its
  ``item_to_server`` bytes, its final ``loads`` as float64 bit patterns and
  its overflow flag.

The grid is

* the four paper algorithms on the figure-4 world (dense delays), seeds 0–2;
* a capacity-tight small world whose GreZ pass needs the ``least_loaded``
  fallback;
* a 150-server world on the coords delay backend, wide enough for the
  engine's top-64 re-evaluation table;
* the ``500s-2000z-100000c-130000cp`` world on the sparse backend with top-64
  candidate sets: GreZ + GreC, and GreC alone on a perturbed zone map;
* the regret arbiter's pooled placement on the 4-shard
  ``30s-160z-2000c-600cp`` federation.

``tests/test_golden_solver.py`` asserts the committed digests; a change to
any placement, load or addition order shows up as a digest mismatch.

Regenerate ``solver.json`` (only when a change of the placements is intended)
from the repository root with::

    PYTHONPATH=src python -m tests.golden.solver_corpus
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from pathlib import Path
from typing import Callable, Dict, List, Union
from unittest import mock

import numpy as np

import repro.core.arbitration as arbitration
import repro.core.grec as grec
import repro.core.grez as grez
from repro.core.arbitration import RegretArbiter, ShardSignal
from repro.core.assignment import Assignment, ZoneAssignment
from repro.core.costs import initial_cost_matrix
from repro.core.measures import measured_server_loads
from repro.core.problem import CAPInstance
from repro.core.registry import solve
from repro.core.regret import RegretResult
from repro.experiments.config import config_from_label
from repro.experiments.figure4 import FIGURE4_LABEL
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER
from repro.topology.brite import BriteConfig
from repro.world.federation import build_federation
from repro.world.scenario import build_scenario
from tests.conftest import make_small_config

GOLDEN_PATH = Path(__file__).resolve().parent / "solver.json"

FIGURE4_SEEDS = (0, 1, 2)
SPARSE_LABEL = "500s-2000z-100000c-130000cp"
FED_LABEL = "30s-160z-2000c-600cp"
FED_SHARDS = 4

#: The consumers of the placement engine, and the entry points they import.
_ENGINE_CALLS = (
    (grez, "max_regret_assign"),
    (grec, "max_regret_assign"),
    (grec, "max_regret_assign_candidates"),
    (arbitration, "max_regret_assign"),
)


def _array_digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _loads_digest(loads: np.ndarray) -> str:
    return _array_digest(np.asarray(loads, dtype="<f8"))


def _placements_digest(results: List[RegretResult]) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(_array_digest(result.item_to_server).encode("ascii"))
        h.update(_loads_digest(result.loads).encode("ascii"))
        h.update(b"1" if result.capacity_exceeded else b"0")
    return h.hexdigest()


def _recorded(run: Callable[[], object]):
    """Run ``run()`` and collect every placement the engine returns meanwhile."""
    results: List[RegretResult] = []
    with ExitStack() as stack:
        for module, name in _ENGINE_CALLS:
            original = getattr(module, name)

            def spy(*args, _original=original, **kwargs):
                result = _original(*args, **kwargs)
                results.append(result)
                return result

            stack.enter_context(mock.patch.object(module, name, spy))
        outcome = run()
    return outcome, results


def _assignment_digests(
    instance: CAPInstance, run: Callable[[], Assignment]
) -> Dict[str, Union[str, bool]]:
    assignment, results = _recorded(run)
    return {
        "zone_to_server": _array_digest(np.asarray(assignment.zone_to_server, dtype=np.int64)),
        "contact_of_client": _array_digest(
            np.asarray(assignment.contact_of_client, dtype=np.int64)
        ),
        "loads": _loads_digest(measured_server_loads(assignment, instance)),
        "capacity_exceeded": bool(assignment.capacity_exceeded),
        "placements": _placements_digest(results),
    }


def _instance(config, seed: int = 0) -> CAPInstance:
    return CAPInstance.from_scenario(build_scenario(config, seed=seed))


# ---------------------------------------------------------------------- #
# Grid entries.
# ---------------------------------------------------------------------- #
def _figure4(algorithm: str, seed: int):
    instance = _instance(config_from_label(FIGURE4_LABEL), seed)
    return _assignment_digests(instance, lambda: solve(instance, algorithm, seed=seed))


def _tight(algorithm: str):
    # 230 Mb/s of capacity for ~287 Mb/s of demand: GreZ runs out of room
    # and places a few zones with the least_loaded fallback.
    instance = _instance(
        make_small_config(num_clients=400, total_capacity_mbps=230.0, min_server_capacity_mbps=1.0),
        seed=5,
    )
    return _assignment_digests(instance, lambda: solve(instance, algorithm, seed=0))


def _coords():
    # 150 servers (over twice the top-64 table width), ~209 Mb/s of demand
    # on 240 Mb/s, and a 150 ms bound that leaves most clients needing a
    # contact server.
    instance = _instance(
        make_small_config(
            num_servers=150,
            num_zones=300,
            num_clients=1500,
            total_capacity_mbps=240.0,
            min_server_capacity_mbps=0.5,
            delay_bound_ms=150.0,
            delay_backend="coords",
            topology=BriteConfig(model="hierarchical", num_nodes=150, num_as=6, routers_per_as=25),
        ),
        seed=2,
    )
    return _assignment_digests(instance, lambda: solve(instance, "grez-grec", seed=0))


def _sparse_instance() -> CAPInstance:
    config = config_from_label(SPARSE_LABEL).with_updates(delay_backend="sparse", sparse_top_k=64)
    return _instance(config)


def _sparse(instance: CAPInstance):
    return _assignment_digests(instance, lambda: solve(instance, "grez-grec", seed=0))


def _sparse_perturbed(instance: CAPInstance):
    # GreC on a zone map GreZ would not choose: a tenth of the zones moved
    # to random servers, so many more clients miss the bound directly.
    zone_to_server = grez.assign_zones_greedy(instance).zone_to_server.copy()
    rng = np.random.default_rng(0)
    moved = rng.random(instance.num_zones) < 0.1
    zone_to_server[moved] = rng.integers(0, instance.num_servers, int(moved.sum()))
    zones = ZoneAssignment(zone_to_server=zone_to_server, algorithm="perturbed")
    return _assignment_digests(instance, lambda: grec.assign_contacts_greedy(instance, zones))


def _fed_regret_arbiter():
    world = build_federation(
        config_from_label(FED_LABEL, correlation=0.0), num_shards=FED_SHARDS, seed=0
    )
    signals = []
    for shard_id, scenario in enumerate(world.shards):
        instance = CAPInstance.from_scenario(scenario)
        signals.append(
            ShardSignal(
                shard_id=shard_id,
                total_demand=instance.total_demand(),
                capacities=instance.server_capacities,
                server_loads=np.zeros(instance.num_servers),
                pqos=0.0,
                capacity_exceeded=False,
                zone_demands=instance.zone_demands(),
                zone_costs=initial_cost_matrix(instance),
            )
        )
    capacities = world.servers.capacities
    weights, results = _recorded(lambda: RegretArbiter().weigh(capacities, signals))
    (placement,) = results
    return {
        "item_to_server": _array_digest(placement.item_to_server),
        "loads": _loads_digest(placement.loads),
        "capacity_exceeded": bool(placement.capacity_exceeded),
        "weights": _loads_digest(weights),
    }


def corpus() -> Dict[str, dict]:
    """Every grid entry's digests, keyed by entry name."""
    entries: Dict[str, dict] = {}
    for seed in FIGURE4_SEEDS:
        for algorithm in PAPER_ALGORITHM_ORDER:
            entries[f"figure4/seed={seed}/{algorithm}"] = _figure4(algorithm, seed)
    for algorithm in ("grez-grec", "grez-virc"):
        entries[f"tight/{algorithm}"] = _tight(algorithm)
    entries["coords/grez-grec"] = _coords()
    sparse = _sparse_instance()
    entries["sparse-100k/grez-grec"] = _sparse(sparse)
    entries["sparse-100k/grec-perturbed"] = _sparse_perturbed(sparse)
    entries["fed-maintenance/regret-arbiter"] = _fed_regret_arbiter()
    return entries


def main() -> None:
    entries = corpus()
    GOLDEN_PATH.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} solver digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
