"""Golden digests of the churn engine's record streams and final assignments.

Each run drives :class:`~repro.dynamics.engine.ChurnSimulator` over a small
world (``make_small_config``) and hashes two streams with sha256:

* ``records`` — every epoch's :data:`~repro.dynamics.engine.EpochRecord.SCENARIO_FIELDS`
  row;
* ``assignments`` — each algorithm's final zone map and contact map.

The grid is every repair policy (re-execute, incremental, warm start, and a
re-execution every 3rd epoch) × three fleets (fixed, 1 join / 1 leave / 0.05
drift per epoch, which re-indexes the servers, and 0.05 drift alone, an
identity-mapped capacity delta) × two delay backends (dense, sparse top-3),
plus every :data:`~repro.dynamics.scenarios.SCENARIO_LIBRARY` preset on
the dense and the sparse top-3 world under the warm-start policy and on the
sparse world under re-execution (a from-scratch GreZ every epoch, through
every delay overlay and fleet change a preset makes), each for two seeds and
two algorithms (GreZ-GreC and RanZ-VirC).
``tests/test_golden_engine.py`` asserts the committed digests with every
measurement checked against its full recompute (``measure_oracle_spy``); any
change to the world advance, a repair, a measurement point or a migration
bill shows up as a digest mismatch.  The digests were taken with full
measurement and reproduce unchanged under the incremental measurement that
is now the engine's only path.

Regenerate ``engine.json`` (only when a change of the streams is intended)
from the repository root with::

    PYTHONPATH=src python -m tests.golden.engine_corpus
"""

from __future__ import annotations

import hashlib
import json
import numbers
from pathlib import Path
from typing import Dict, Iterable, Iterator, Tuple

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.scenarios import SCENARIO_LIBRARY
from repro.world.scenario import build_scenario
from tests.conftest import make_small_config

GOLDEN_PATH = Path(__file__).resolve().parent / "engine.json"

NUM_EPOCHS = 6
SEEDS = (0, 1)
ALGORITHMS = ("grez-grec", "ranz-virc")
CHURN = ChurnSpec(num_joins=20, num_leaves=20, num_moves=20)
MIGRATION = MigrationCostModel(cost_per_client=1.0)

#: name -> (policy, policy_period)
POLICIES: Dict[str, Tuple[str, int]] = {
    "reexecute": ("reexecute", 0),
    "incremental": ("incremental", 0),
    "warm_start": ("warm_start", 0),
    "every_3": ("every_k_epochs", 3),
}

#: name -> per-epoch server churn (``None`` keeps the fleet fixed)
FLEETS: Dict[str, object] = {
    "fixed": None,
    "elastic": ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05),
    "drift": ServerChurnSpec(capacity_drift=0.05),
}

#: name -> config overrides of ``make_small_config``
DELAYS: Dict[str, dict] = {
    "dense": {},
    "sparse": {"delay_backend": "sparse", "sparse_top_k": 3},
}


def _canonical(value) -> str:
    """Exact, numpy-version-independent text of one stream value."""
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def _digest(rows: Iterable[Iterable]) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(_canonical(v) for v in row) + "\n").encode("utf-8"))
    return h.hexdigest()


def _simulator(key: Tuple[str, str, str, int]) -> ChurnSimulator:
    kind, first, second, seed = key
    if kind == "grid":
        policy, period = POLICIES[first]
        delays, fleet = second.split("+")
        return ChurnSimulator(
            scenario=build_scenario(make_small_config(**DELAYS[delays]), seed=seed),
            algorithms=list(ALGORITHMS),
            churn_spec=CHURN,
            server_churn_spec=FLEETS[fleet],
            migration_cost=MIGRATION,
            seed=seed,
            policy=policy,
            policy_period=period,
        )
    delays, _, preset = second.rpartition("+")
    return ChurnSimulator(
        scenario=build_scenario(make_small_config(**DELAYS[delays or "dense"]), seed=seed),
        algorithms=list(ALGORITHMS),
        churn_spec=CHURN,
        migration_cost=MIGRATION,
        seed=seed,
        policy=first,
        scenario_timeline=preset,
    )


def run_digests(*key) -> Dict[str, str]:
    """``{"records": sha256, "assignments": sha256}`` of one engine run."""
    session = _simulator(key).session(NUM_EPOCHS)
    records = []
    while not session.done:
        records.extend(session.run_epoch())
    maps = []
    for name in ALGORITHMS:
        assignment = session.state.assignments[name]
        maps.append(("zones", name, *assignment.zone_to_server.tolist()))
        maps.append(("contacts", name, *assignment.contact_of_client.tolist()))
    return {
        "records": _digest(
            [getattr(r, name) for name in EpochRecord.SCENARIO_FIELDS] for r in records
        ),
        "assignments": _digest(maps),
    }


def run_keys() -> Iterator[Tuple[str, str, str, int]]:
    """Every run of the grid, in a fixed order.

    Grid keys are ``("grid", policy, "<delays>+<fleet>", seed)``; preset keys
    are ``("preset", policy, preset, seed)`` on the dense world and
    ``("preset", policy, "sparse+<preset>", seed)`` on the sparse one, with
    the warm-start policy, then the sparse ones again with re-execution.
    """
    for policy in POLICIES:
        for delays in DELAYS:
            for fleet in FLEETS:
                for seed in SEEDS:
                    yield "grid", policy, f"{delays}+{fleet}", seed
    for preset in SCENARIO_LIBRARY:
        for seed in SEEDS:
            yield "preset", "warm_start", preset, seed
    for preset in SCENARIO_LIBRARY:
        for seed in SEEDS:
            yield "preset", "warm_start", f"sparse+{preset}", seed
    for preset in SCENARIO_LIBRARY:
        for seed in SEEDS:
            yield "preset", "reexecute", f"sparse+{preset}", seed


def key_name(kind: str, first: str, second: str, seed: int) -> str:
    return f"{kind}/{first}/{second}/seed={seed}"


def main() -> None:
    corpus = {key_name(*key): run_digests(*key) for key in run_keys()}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} engine digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
