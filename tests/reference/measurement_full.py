"""Test-only oracle: every engine measurement point, recomputed in full.

The churn engine serves its measurement points from the measurement stash
(:mod:`repro.core.measures`) and delta-updates the carried-over point from
the churn batch (:func:`repro.dynamics.measurement.carried_qos_count`).  The
full recompute they must match stays in ``src/`` for the static
experiments:

* ``measured_pqos`` — :meth:`~repro.core.assignment.Assignment.pqos`;
* ``measured_utilization`` —
  :meth:`~repro.core.assignment.Assignment.resource_utilization`;
* ``carried_qos_count`` — build the carried assignment with
  :func:`~repro.dynamics.policies.carry_over_assignment` and count its
  QoS mask.

``checked_measures`` checks every such call the engine makes against its
full equivalent, bit for bit.  ``full_measurement`` instead makes the engine
measure the long way — no stash is ever read — which is what the epoch
benchmark times as the baseline of the incremental measure phase.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, Iterator, List

import numpy as np

import repro.dynamics.engine as engine
from repro.dynamics.policies import carry_over_assignment


def full_carried_qos_count(stash, base_assignment, batch, churn, new_instance) -> int:
    """Within-bound count of the carried assignment, from its full QoS mask."""
    carried = carry_over_assignment(base_assignment, churn, new_instance)
    return int(carried.qos_mask(new_instance).sum())


#: Engine measurement entry point -> its full-recompute equivalent.
FULL_EQUIVALENTS: Dict[str, Callable] = {
    "measured_pqos": lambda assignment, instance: assignment.pqos(instance),
    "measured_utilization": lambda assignment, instance: assignment.resource_utilization(
        instance
    ),
    "carried_qos_count": full_carried_qos_count,
}


def _same_bits(actual, expected) -> bool:
    """Equal as float64 bit patterns (so NaN == NaN and 0.0 != -0.0)."""
    return np.float64(actual).tobytes() == np.float64(expected).tobytes()


@contextlib.contextmanager
def _rebound(replacements: Dict[str, Callable]) -> Iterator[None]:
    """Rebind names of :mod:`repro.dynamics.engine` while the context is active."""
    originals = {name: getattr(engine, name) for name in replacements}
    for name, replacement in replacements.items():
        setattr(engine, name, replacement)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(engine, name, original)


@contextlib.contextmanager
def checked_measures() -> Iterator[List[str]]:
    """Check every engine measurement call against its full recompute.

    While active, each ``measured_pqos``, ``measured_utilization`` and
    ``carried_qos_count`` call the engine makes must return the same bits as
    :data:`FULL_EQUIVALENTS` on the same arguments.  Yields a list that gets
    the entry point's name once per checked call.
    """
    checked: List[str] = []

    def checking(name: str) -> Callable:
        measure, full = getattr(engine, name), FULL_EQUIVALENTS[name]

        def checked_call(*args):
            actual = measure(*args)
            expected = full(*args)
            assert _same_bits(actual, expected), f"{name}: {actual!r} != full {expected!r}"
            checked.append(name)
            return actual

        return checked_call

    with _rebound({name: checking(name) for name in FULL_EQUIVALENTS}):
        yield checked


@contextlib.contextmanager
def full_measurement() -> Iterator[None]:
    """Make the engine recompute every measurement point in full.

    Rebinds the engine's stash reads: ``stash_for`` finds no stash, so the
    carried-over point builds and measures the carried assignment;
    ``measured_pqos`` / ``measured_utilization`` recompute from the
    assignment arrays; ``ensure_measures`` attaches nothing.  Records stay
    the same; only the measure phase costs O(clients) per point.
    """
    with _rebound(
        {
            "stash_for": lambda assignment, instance: None,
            "ensure_measures": lambda assignment, instance: None,
            "measured_pqos": FULL_EQUIVALENTS["measured_pqos"],
            "measured_utilization": FULL_EQUIVALENTS["measured_utilization"],
        }
    ):
        yield
