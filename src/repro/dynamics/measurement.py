"""Incremental QoS measurement for churn epochs.

The engine's measurement points (``pqos_before/after/reexecuted/incremental/
adopted``, utilisation) all reduce two per-assignment aggregates — the
per-client delay vector and the per-server load vector — that the refined
phase computes as byproducts anyway.  :mod:`repro.core.measures` keeps those
byproducts in ``Assignment.metadata`` (the *measurement stash*) and serves
the O(1) reads; this module adds the piece that needs churn semantics: the
O(churn) delta for the **carried-over** point, the one measurement in an
epoch that is not preceded by a solve that could have stashed it.

:func:`carried_qos_count` adjusts the previous epoch's within-bound count for
exactly the clients the churn batch touched — leavers subtracted, movers
re-evaluated against their new target, joiners evaluated once.  Non-mover
survivors keep their zone, contact and target, so their delays carry over
*bitwise* and are never touched; the result is bit-identical to building the
carried assignment and re-reducing its full QoS mask (asserted by the
property tests).

This is the engines' only measurement path.  The full recompute it must
match — ``Assignment.pqos`` / ``resource_utilization`` and the carried
assignment's QoS mask — is checked against every engine measurement by the
test suite's measurement oracle.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assignment import Assignment
from repro.core.measures import (
    MEASURE_KEY,
    MeasureStash,
    attach_measures,
    ensure_measures,
    measured_pqos,
    measured_server_loads,
    measured_utilization,
    stash_for,
)
from repro.core.problem import CAPInstance
from repro.dynamics.churn import ChurnBatch
from repro.dynamics.events import ChurnResult

__all__ = [
    "MEASURE_KEY",
    "MeasureStash",
    "attach_measures",
    "stash_for",
    "ensure_measures",
    "measured_pqos",
    "measured_utilization",
    "measured_server_loads",
    "carried_qos_count",
    "check_measurement_backend",
]


def check_measurement_backend(measurement_backend: Optional[str]) -> None:
    """Reject every ``measurement_backend`` keyword value but ``"incremental"``.

    The engines measure incrementally, always; they still accept the
    keyword with that one value (or ``None``) for existing callers and store
    nothing.
    """
    if measurement_backend not in (None, "incremental"):
        raise ValueError(
            f"measurement_backend={measurement_backend!r}: the full-recompute "
            "measurement backend was removed; the engine always measures "
            "incrementally (only 'incremental' is accepted)"
        )


def carried_qos_count(
    stash: MeasureStash,
    base_assignment: Assignment,
    batch: ChurnBatch,
    churn: ChurnResult,
    new_instance: CAPInstance,
) -> int:
    """Within-bound count of the carried-over assignment on the new instance.

    Equals ``carry_over_assignment(base, churn, new_instance)`` followed by a
    full ``qos_mask(new_instance).sum()`` — without ever building the carried
    assignment or touching the untouched clients:

    * non-mover survivors keep zone, contact and target, so their delays
      carry over bitwise and their count contribution is unchanged;
    * leavers subtract their old contribution (read from the stash);
    * movers keep their contact but change target — their old contribution is
      subtracted and their new delay ``d(c, contact) + d(contact, target')``
      is evaluated on the new instance (under the sparse backend the client's
      delay row follows its *new* zone, exactly as the full recompute sees);
    * joiners connect straight to their zone's host and add
      ``d(c, target) + d(target, target)`` — the mesh diagonal is zero, so
      this is the direct delay, matching the carried assignment's default.

    Preconditions (the engine checks them): ``stash`` is valid for the
    pre-churn instance the batch was generated against, and the server fleet
    did not re-index this epoch (capacity-only deltas are fine — delays do
    not depend on capacities).
    """
    bound = new_instance.delay_bound
    mesh = new_instance.server_server_delays
    zone_to_server = base_assignment.zone_to_server
    count = stash.qos_count

    if batch.leave_indices.size:
        count -= int(np.count_nonzero(stash.delays[batch.leave_indices] <= bound))

    if batch.move_indices.size:
        count -= int(np.count_nonzero(stash.delays[batch.move_indices] <= bound))
        new_idx = churn.old_to_new[batch.move_indices]
        contacts = base_assignment.contact_of_client[batch.move_indices]
        new_targets = zone_to_server[batch.move_zones]
        moved_delays = new_instance.delay_pairs(new_idx, contacts) + mesh[contacts, new_targets]
        count += int(np.count_nonzero(moved_delays <= bound))

    joiners = churn.new_client_indices
    if joiners.size:
        targets = zone_to_server[new_instance.client_zones[joiners]]
        join_delays = new_instance.delay_pairs(joiners, targets) + mesh[targets, targets]
        count += int(np.count_nonzero(join_delays <= bound))

    return count
