"""Golden digests of the rebalance controller's record and decision streams.

Each run drives a single-algorithm :class:`~repro.dynamics.engine.ChurnSimulator`
under a :class:`~repro.dynamics.policies.RebalancePolicy` over a small world
and hashes two streams of its records with sha256:

* ``records`` — every epoch's :data:`~repro.dynamics.engine.EpochRecord.SCENARIO_FIELDS`
  row;
* ``steps`` — every epoch's ``(action, pqos_after, pqos_adopted,
  zones_migrated, clients_migrated, migration_cost, freeze_ms)``, with
  ``freeze_ms`` priced by the run's migration model.

The grid is the :func:`~repro.experiments.controller.default_controller_policies`
ladder plus a periodic, a budget-0 eager and a budget-0 repair-first policy,
over three settings (fixed fleet with free migration, 1+/1-/0.05 server churn at unit cost, and a
maintenance + diurnal + link-degradation timeline at unit cost) and two seeds.
``tests/test_golden_controller.py`` asserts the committed digests; any change
to a controller decision, a measurement point or a migration bill shows up as
a digest mismatch.

Regenerate ``controller.json`` (only when a change of the streams is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.controller_corpus
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import Dict, Iterable

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.dynamics.infrastructure import ServerChurnSpec
from repro.dynamics.migration import MigrationCostModel
from repro.dynamics.policies import RebalancePolicy
from repro.experiments.controller import default_controller_policies
from repro.world.scenario import build_scenario
from tests.conftest import make_small_config

GOLDEN_PATH = Path(__file__).resolve().parent / "controller.json"

NUM_EPOCHS = 6
SEEDS = (0, 1)
CHURN = ChurnSpec(num_joins=30, num_leaves=30, num_moves=30)

#: Unit migration cost; the freeze rates make ``freeze_ms`` non-trivial.
UNIT_COST = MigrationCostModel(
    cost_per_client=1.0, freeze_ms_per_client=0.5, freeze_ms_per_zone=2.0
)

#: name -> (server churn, migration model, incident timeline)
SETTINGS: Dict[str, tuple] = {
    "fixed-free": (None, MigrationCostModel(), None),
    "elastic-unit": (
        ServerChurnSpec(num_joins=1, num_leaves=1, capacity_drift=0.05),
        UNIT_COST,
        None,
    ),
    "incidents-unit": (None, UNIT_COST, ("maintenance", "diurnal", "link-degradation")),
}


def _policies(migration: MigrationCostModel) -> Dict[str, RebalancePolicy]:
    """The default ladder (budgeted as ``run_controller`` does) plus three edge policies."""
    config = make_small_config()
    budget = (
        0.25 * config.num_clients * migration.cost_per_client
        if migration.cost_per_client > 0
        else math.inf
    )
    policies = dict(default_controller_policies(budget))
    policies["periodic (every 3)"] = RebalancePolicy(
        target_pqos=0.95, repair_slack=0.15, full_rebalance_every=3
    )
    policies["eager budget 0"] = RebalancePolicy(
        target_pqos=1.0, repair_slack=0.0, max_migration_cost_per_epoch=0.0
    )
    # Repairs that miss the target escalate, and the escalation is then
    # demoted by the budget: the demotion must reuse the failed repair.
    policies["watchful budget 0"] = RebalancePolicy(
        target_pqos=0.95, repair_slack=0.15, max_migration_cost_per_epoch=0.0
    )
    return policies


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


def run_digests(setting: str, policy_name: str, seed: int) -> Dict[str, str]:
    """``{"records": sha256, "steps": sha256}`` of one controller run."""
    server_churn, migration, timeline = SETTINGS[setting]
    scenario = build_scenario(make_small_config(), seed=seed)
    records = ChurnSimulator(
        scenario=scenario,
        algorithms=["grez-grec"],
        churn_spec=CHURN,
        server_churn_spec=server_churn,
        migration_cost=migration,
        seed=seed,
        policy=_policies(migration)[policy_name],
        scenario_timeline=timeline,
    ).run(NUM_EPOCHS)
    return {
        "records": _digest(
            [getattr(r, name) for name in EpochRecord.SCENARIO_FIELDS] for r in records
        ),
        "steps": _digest(
            (
                r.action,
                r.pqos_after,
                r.pqos_adopted,
                r.zones_migrated,
                r.clients_migrated,
                r.migration_cost,
                migration.charge(r.zones_migrated, r.clients_migrated).freeze_ms,
            )
            for r in records
        ),
    }


def run_keys():
    """Every ``(setting, policy, seed)`` of the grid, in a fixed order."""
    for setting, (_, migration, _) in SETTINGS.items():
        for policy_name in _policies(migration):
            for seed in SEEDS:
                yield setting, policy_name, seed


def key_name(setting: str, policy_name: str, seed: int) -> str:
    return f"{setting}/{policy_name}/seed={seed}"


def main() -> None:
    corpus = {key_name(*key): run_digests(*key) for key in run_keys()}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} controller digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
