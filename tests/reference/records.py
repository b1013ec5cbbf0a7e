"""Test-only comparison of epoch records: field-wise equality with NaN == NaN.

Equivalence tests compare the records of two runs that must agree (serial
and parallel, a federated shard and a stand-alone simulator, a replay and the
original).  Unmeasured cells are NaN, which never equals itself, so plain
``==`` on the records would fail exactly where both runs agree.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.dynamics.engine import EpochRecord


def records_equal(a: EpochRecord, b: EpochRecord, fields: Optional[tuple] = None) -> bool:
    """Field-wise equality that treats NaN == NaN.

    Compares the measurement columns (:data:`EpochRecord.FIELDS`) by default;
    ``shard_id`` is an addressing label, not a measurement, so a federated
    shard's record can equal the stand-alone simulator's record.  Pass
    ``fields=EpochRecord.SCENARIO_FIELDS`` to also compare the degradation
    columns.
    """
    for name in fields or EpochRecord.FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, float) and isinstance(vb, float):
            if math.isnan(va) and math.isnan(vb):
                continue
            if va != vb:
                return False
        elif va != vb:
            return False
    return True
