"""Golden digests of federated record streams and final shard assignments.

Each run drives :class:`~repro.dynamics.federation_engine.FederatedSimulator`
over a small world (``make_small_config``) with the warm-start policy, unit
migration cost and the ``maintenance`` + ``diurnal`` incident timeline, and
hashes with sha256:

* ``records`` — every shard and aggregate record's
  :data:`~repro.dynamics.engine.EpochRecord.SCENARIO_FIELDS` row, with its
  ``shard_id``, in stream order;
* ``assignments`` — every shard's final ``zone_to_server`` and
  ``contact_of_client`` maps (primary algorithm).

The engine runs the warm-start zone-move sweep on every capacity-delta
epoch: the maintenance windows open and close under every arbiter, and the
proportional and regret arbiters re-slice the shared fleet after almost
every epoch, so their shards run the sweep on nearly every epoch.

The grid is N in {1, 4} shards x arbiter in {static, proportional, regret}
x seeds {0, 1} on the dense delay backend, plus every shard count x arbiter
for seed 0 on the sparse top-3 backend.  ``tests/test_golden_federation.py`` asserts the
committed digests with every shard measurement checked against its full
recompute (``measure_oracle_spy``).

Regenerate ``federation.json`` (only when a change of the streams is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.federation_corpus
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import EpochRecord
from repro.dynamics.federation_engine import FederatedSimulator
from repro.dynamics.migration import MigrationCostModel
from repro.world.federation import build_federation
from tests.conftest import make_small_config

GOLDEN_PATH = Path(__file__).resolve().parent / "federation.json"

NUM_EPOCHS = 10
SEEDS = (0, 1)
SHARD_COUNTS = (1, 4)
ARBITERS = ("static", "proportional", "regret")
CHURN = ChurnSpec(num_joins=6, num_leaves=6, num_moves=6)
TIMELINE = ("maintenance:period=6,window=2,frac=0.5,start=1", "diurnal")

#: name -> config overrides of ``make_small_config``
BACKENDS: Dict[str, dict] = {
    "dense": {},
    "sparse": {"delay_backend": "sparse", "sparse_top_k": 3},
}


@dataclass
class _RecordingSimulator(FederatedSimulator):
    """Keeps each shard's session so the final assignments can be read.

    The arbitration step reads every shard's session between epochs; the
    same session objects hold each shard's state after the last epoch.
    """

    def _signals(self, sessions, needs_zone_costs):
        self._sessions = sessions
        return super()._signals(sessions, needs_zone_costs)


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


def run_digests(backend: str, num_shards: int, arbiter: str, seed: int) -> Dict[str, str]:
    """``{"records": sha256, "assignments": sha256}`` of one federated run."""
    world = build_federation(
        make_small_config(**BACKENDS[backend]), num_shards=num_shards, seed=seed
    )
    simulator = _RecordingSimulator(
        world=world,
        algorithms=["grez-grec"],
        arbiter=arbiter,
        churn_spec=CHURN,
        migration_cost=MigrationCostModel(cost_per_client=1.0),
        seed=seed,
        policy="warm_start",
        scenario_timeline=list(TIMELINE),
    )
    records: List[EpochRecord] = simulator.run(NUM_EPOCHS)
    maps = []
    for shard_id in range(num_shards):
        assignment = simulator._sessions[shard_id].state.assignments["grez-grec"]
        maps.append(("zones", shard_id, *assignment.zone_to_server.tolist()))
        maps.append(("contacts", shard_id, *assignment.contact_of_client.tolist()))
    return {
        "records": _digest(
            (r.shard_id, *(getattr(r, name) for name in EpochRecord.SCENARIO_FIELDS))
            for r in records
        ),
        "assignments": _digest(maps),
    }


def run_keys():
    """Every ``(backend, shards, arbiter, seed)`` of the grid, in a fixed order."""
    for num_shards in SHARD_COUNTS:
        for arbiter in ARBITERS:
            for seed in SEEDS:
                yield "dense", num_shards, arbiter, seed
    for num_shards in SHARD_COUNTS:
        for arbiter in ARBITERS:
            yield "sparse", num_shards, arbiter, 0


def key_name(backend: str, num_shards: int, arbiter: str, seed: int) -> str:
    return f"{backend}/N={num_shards}/{arbiter}/seed={seed}"


def main() -> None:
    corpus = {key_name(*key): run_digests(*key) for key in run_keys()}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} federation digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
