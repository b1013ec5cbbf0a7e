"""Recovery metrics for incident scenarios.

When a disturbance (outage, flash crowd, link degradation, ...) hits a
running world, the interesting questions are not the steady-state pQoS but
how deep the service dipped, how much client-time was spent in the degraded
pool, and how many epochs it took to climb back to the pre-incident level.
This module turns a per-epoch :class:`~repro.dynamics.engine.EpochRecord`
stream into a :class:`RecoveryReport` answering exactly those questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["RecoveryReport", "recovery_report"]


@dataclass(frozen=True)
class RecoveryReport:
    """Summary of an incident's impact on a per-epoch record stream.

    Attributes
    ----------
    baseline_pqos:
        Adopted pQoS of the first (pre-incident) epoch.
    time_to_recover:
        Epochs from first impact until the world is healthy again (adopted
        pQoS back within tolerance of baseline AND the degraded pool empty).
        Zero when no impact was observed; ``num_epochs - first_impact`` when
        the run ended still degraded (see ``recovered``).
    dip_depth:
        Baseline pQoS minus the minimum adopted pQoS over the run.
    dip_area:
        Sum over epochs of ``max(0, baseline - pqos_adopted)`` — the
        integrated pQoS shortfall (epochs x pQoS fraction).
    degraded_client_epochs:
        Sum of ``clients_degraded`` across epochs: total client-epochs spent
        shed to the degraded pool.
    max_clients_degraded / max_capacity_deficit:
        Worst-epoch pool size and pre-shedding demand overshoot (bps).
    first_impact:
        Epoch index of the first degraded or below-baseline epoch
        (``None`` when the incident never registered).
    recovered:
        True when the world returned to health before the records ran out.
    """

    baseline_pqos: float
    time_to_recover: int
    dip_depth: float
    dip_area: float
    degraded_client_epochs: int
    max_clients_degraded: int
    max_capacity_deficit: float
    first_impact: Optional[int]
    recovered: bool


def recovery_report(
    records: Sequence[object],
    algorithm: Optional[str] = None,
    tolerance: float = 0.01,
) -> RecoveryReport:
    """Compute a :class:`RecoveryReport` from per-epoch records.

    ``records`` is any sequence of :class:`EpochRecord`-like objects carrying
    ``epoch``, ``algorithm``, ``pqos_adopted``, ``clients_degraded`` and
    ``capacity_deficit``.  When ``algorithm`` is given, only that algorithm's
    records are considered (a simulator run interleaves one record per
    algorithm per epoch).  The earliest epoch defines the healthy reference
    level and ``tolerance`` is the pQoS slack allowed while still counting as
    recovered.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    rows = [r for r in records if algorithm is None or r.algorithm == algorithm]
    rows.sort(key=lambda r: r.epoch)
    if not rows:
        suffix = f" for algorithm {algorithm!r}" if algorithm else ""
        raise ValueError("no records to analyse" + suffix)

    baseline = rows[0].pqos_adopted
    floor = baseline - tolerance

    first_impact: Optional[int] = None
    recovery_index: Optional[int] = None
    dip_depth = 0.0
    dip_area = 0.0
    degraded_client_epochs = 0
    max_degraded = 0
    max_deficit = 0.0
    for i, row in enumerate(rows):
        degraded = int(getattr(row, "clients_degraded", 0))
        deficit = float(getattr(row, "capacity_deficit", 0.0))
        degraded_client_epochs += degraded
        max_degraded = max(max_degraded, degraded)
        max_deficit = max(max_deficit, deficit)
        shortfall = baseline - row.pqos_adopted
        dip_depth = max(dip_depth, shortfall)
        dip_area += max(0.0, shortfall)
        impacted = degraded > 0 or row.pqos_adopted < floor
        if impacted:
            if first_impact is None:
                first_impact = i
            recovery_index = None
        elif first_impact is not None and recovery_index is None:
            recovery_index = i

    if first_impact is None:
        return RecoveryReport(
            baseline_pqos=baseline,
            time_to_recover=0,
            dip_depth=dip_depth,
            dip_area=dip_area,
            degraded_client_epochs=0,
            max_clients_degraded=0,
            max_capacity_deficit=max_deficit,
            first_impact=None,
            recovered=True,
        )
    recovered = recovery_index is not None
    end = recovery_index if recovered else len(rows)
    return RecoveryReport(
        baseline_pqos=baseline,
        time_to_recover=end - first_impact,
        dip_depth=dip_depth,
        dip_area=dip_area,
        degraded_client_epochs=degraded_client_epochs,
        max_clients_degraded=max_degraded,
        max_capacity_deficit=max_deficit,
        first_impact=first_impact,
        recovered=recovered,
    )
