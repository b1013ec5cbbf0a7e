"""Output checks, record digests and per-op observations.

Every op's output is checked after the timed loop, so checking never counts
against op wall time.  A failed check fails its op; a round-level check (the
paper's algorithm ordering) fails the whole round.  Digests are sha256 over
the record stream in a fixed column order, so two runs of the same seed and
op count must produce the same digest on any commit that keeps the records.
"""

from __future__ import annotations

import hashlib
import math

from repro.dynamics.engine import EpochRecord
from repro.experiments.paper_values import PAPER_ALGORITHM_ORDER

__all__ = ["EPOCH", "FEDERATED", "REPLICATION", "digest", "check_outputs", "observe"]

#: Output kinds: one ``EpochSession.run_epoch()`` record list, one federated
#: epoch (shard records then the aggregate), one ``Figure4Result``.
EPOCH, FEDERATED, REPLICATION = "epoch", "federated", "replication"

_FIELDS = {
    EPOCH: EpochRecord.SCENARIO_FIELDS,
    # FEDERATED_FIELDS plus the degradation columns, which carry the
    # maintenance workload's shedding.
    FEDERATED: ("shard_id", *EpochRecord.SCENARIO_FIELDS),
}

#: Measurement points every record must carry; the others may be NaN when
#: the epoch's policy action did not compute them.
_REQUIRED_PQOS = ("pqos_before", "pqos_after", "pqos_adopted")
_OPTIONAL_PQOS = ("pqos_reexecuted", "pqos_incremental")


def _rows(kind: str, output):
    if kind == REPLICATION:
        for name in PAPER_ALGORITHM_ORDER:
            values = ",".join(repr(float(v)) for v in output.cdfs[name].values)
            yield f"{name},{float(output.pqos[name])!r},{values}"
        return
    fields = _FIELDS[kind]
    for record in output:
        yield ",".join(repr(getattr(record, f)) for f in fields)


def digest(kind: str, outputs) -> str:
    """sha256 of the round's record stream, one CSV-like line per record."""
    h = hashlib.sha256()
    for output in outputs:
        for row in _rows(kind, output):
            h.update(row.encode())
            h.update(b"\n")
    return h.hexdigest()


def _pqos_problem(record) -> str | None:
    for name in _REQUIRED_PQOS:
        value = getattr(record, name)
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return f"{name}={value!r} is not a finite fraction"
    for name in _OPTIONAL_PQOS:
        value = getattr(record, name)
        if not (math.isnan(value) or 0.0 <= value <= 1.0):
            return f"{name}={value!r} lies outside [0, 1]"
    return None


def _check_epochs(outputs, net_joins: int) -> list[tuple[int, str]]:
    failures = []
    prev = None
    for i, records in enumerate(outputs):
        if len(records) != 1:
            failures.append((i, f"expected 1 record, got {len(records)}"))
            continue
        (record,) = records
        problem = _pqos_problem(record)
        if problem is None and record.num_clients_after != record.num_clients_before + net_joins:
            problem = (
                f"clients {record.num_clients_before} -> {record.num_clients_after} "
                f"with {net_joins:+d} net joins"
            )
        if problem is None and prev is not None and (
            record.num_clients_before != prev.num_clients_after
            or record.pqos_before != prev.pqos_adopted
        ):
            problem = "epoch does not start from the previous epoch's adopted state"
        if problem is not None:
            failures.append((i, problem))
        prev = record
    return failures


def _check_federated(outputs, num_shards: int) -> list[tuple[int, str]]:
    failures = []
    expected_ids = [*range(num_shards), -1]
    for i, records in enumerate(outputs):
        problem = None
        if [r.shard_id for r in records] != expected_ids:
            problem = f"shard ids {[r.shard_id for r in records]} != {expected_ids}"
        else:
            *shards, total = records
            if total.num_clients_after != sum(r.num_clients_after for r in shards):
                problem = "aggregate client count differs from the shards' sum"
            for record in records:
                problem = problem or _pqos_problem(record)
        if problem is not None:
            failures.append((i, problem))
    return failures


def _check_replications(outputs, num_clients: int) -> list[tuple[int, str]]:
    failures = []
    for i, result in enumerate(outputs):
        for name in PAPER_ALGORITHM_ORDER:
            pqos = result.pqos[name]
            samples = result.cdfs[name].num_samples
            if not (math.isfinite(pqos) and 0.0 <= pqos <= 1.0):
                failures.append((i, f"{name} pQoS {pqos!r} is not a finite fraction"))
                break
            if samples != num_clients:
                failures.append((i, f"{name} assigned {samples} of {num_clients} clients"))
                break
    if outputs:
        grez = sum(r.pqos["grez-grec"] for r in outputs) / len(outputs)
        ranz = sum(r.pqos["ranz-virc"] for r in outputs) / len(outputs)
        if grez < ranz:
            failures.append((-1, f"mean grez-grec pQoS {grez:.4f} < ranz-virc {ranz:.4f}"))
    return failures


def check_outputs(kind: str, outputs, **expected) -> list[tuple[int, str]]:
    """``(op index, reason)`` for every failed check; index -1 fails the round."""
    if kind == EPOCH:
        return _check_epochs(outputs, expected["net_joins"])
    if kind == FEDERATED:
        return _check_federated(outputs, expected["num_shards"])
    return _check_replications(outputs, expected["num_clients"])


def observe(kind: str, output) -> tuple[float, int, int, int]:
    """``(pqos, clients degraded, clients attempted, zones migrated)`` of one op.

    pQoS is the adopted pQoS (the whole-system aggregate for a federation,
    grez-grec for a replication); clients attempted are the active clients
    plus those sitting in the degraded pool.
    """
    if kind == REPLICATION:
        return output.pqos["grez-grec"], 0, output.cdfs["grez-grec"].num_samples, 0
    if kind == EPOCH:
        (record,) = output
        return record.pqos_adopted, 0, record.num_clients_after, record.zones_migrated
    *shards, total = output
    return (
        total.pqos_adopted,
        total.clients_degraded,
        total.num_clients_after + total.clients_degraded,
        sum(r.zones_migrated for r in shards),
    )
