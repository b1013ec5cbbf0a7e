"""Sustained epoch throughput: the arena fast path vs the executable spec.

Drives the figure-4 configuration (largest paper world, incremental
measurement, warm-start policy) through
:func:`repro.experiments.loadgen.run_loadgen` twice per repetition — once
with the epoch arena on, once with it off — interleaved so machine noise
hits both arms alike.  Reports steady-state epochs/sec and events/sec, the
p50/p99 epoch wall, the per-phase wall and allocation split.

* **speedup** is a recorded value, not a gate: the ratio of the spec
  path's p50 epoch wall to the arena path's (each arm takes its best p50
  across repetitions).  On a shared 2-vCPU host the full rung read
  1.19x-1.59x (quartiles 1.39x / 1.43x / 1.46x) and fell below the old
  1.3x gate in 4 of 40 standalone runs, so a fixed threshold fails on
  timing noise.
* **allocation** is gated: steady-state tracemalloc peak bytes per epoch
  drop by at least 5x, from a separate deterministic alloc pass per arm.

A short record-stream probe re-asserts that both arms emit bit-identical
:class:`~repro.dynamics.engine.EpochRecord` streams (the exhaustive
measurement x churn cross-product lives in
``tests/test_throughput_engine.py``).

Results go to ``BENCH_throughput.json`` at the repository root with
``REPRO_BENCH_UPDATE=1``.  CI's throughput-guard job runs the smoke rung
(``REPRO_BENCH_RUNS=1``) as a blocking check; the committed JSON comes from
the full rung.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator, EpochRecord
from repro.experiments.config import config_from_label
from repro.experiments.loadgen import format_loadgen, run_loadgen
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json

pytestmark = pytest.mark.benchmark

LABEL = "30s-160z-2000c-1000cp"
ALGORITHM = "grez-grec"
POLICY = "warm_start"
MEASUREMENT = "incremental"
#: Steady-state churn mix: 1% of the population joins, leaves and moves per
#: epoch (60 events on the figure-4 world).  This is the sustained-service
#: regime the arena targets — fixed per-epoch overheads dominate and the
#: fast path recycles essentially everything.  Heavier mixes (Table 3's
#: 200/200/200 burst) spend proportionally more in the O(churn x servers)
#: joiner-delay block and the repair sweep, which the spec path pays too;
#: the speedup holds but the allocation ratio shrinks toward 3x.
CHURN = ChurnSpec(num_joins=20, num_leaves=20, num_moves=20)

#: Interleaved (arena on, arena off) repetitions; smoke mode runs one.
REPS = bench_runs(4)
SMOKE = REPS == 1
EPOCHS = 40 if SMOKE else 120
WARMUP = 5 if SMOKE else 15
ALLOC_EPOCHS = 10 if SMOKE else 30

#: Steady-state allocation gate (tracemalloc is deterministic, so the
#: smoke rung keeps a real bar; fewer alloc epochs amortise one-off
#: interpreter allocations less well, hence the slack).
ALLOC_GATE = 4.0 if SMOKE else 5.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _loadgen(arena: bool, alloc_profile: bool = False):
    return run_loadgen(
        label=LABEL,
        algorithms=(ALGORITHM,),
        epochs=EPOCHS,
        warmup=WARMUP,
        churn=CHURN,
        policy=POLICY,
        measurement_backend=MEASUREMENT,
        correlation=0.0,
        seed=0,
        arena=arena,
        alloc_profile=alloc_profile,
        alloc_epochs=ALLOC_EPOCHS,
    )


def _record_stream(arena: bool, epochs: int = 8):
    config = config_from_label(LABEL, correlation=0.0)
    scenario = build_scenario(config, seed=3)
    simulator = ChurnSimulator(
        scenario=scenario,
        algorithms=[ALGORITHM],
        churn_spec=CHURN,
        seed=11,
        policy=POLICY,
        measurement_backend=MEASUREMENT,
        arena=arena,
    )
    session = simulator.session(epochs)
    records = []
    for _ in range(epochs):
        records.extend(session.run_epoch())
    return records


def _streams_identical() -> bool:
    for rec_on, rec_off in zip(_record_stream(True), _record_stream(False)):
        for field in EpochRecord.FIELDS:
            value_on = getattr(rec_on, field)
            value_off = getattr(rec_off, field)
            both_nan = (
                isinstance(value_on, float)
                and isinstance(value_off, float)
                and math.isnan(value_on)
                and math.isnan(value_off)
            )
            if not both_nan and value_on != value_off:
                return False
    return True


def test_bench_epoch_throughput(record):
    # Interleaved timing repetitions: each arm keeps its best (lowest) p50
    # epoch wall and its best epochs/sec, so a background stall in one rep
    # cannot sink either arm.
    timing_on, timing_off = [], []
    for _ in range(REPS):
        timing_on.append(_loadgen(arena=True))
        timing_off.append(_loadgen(arena=False))
    best_on = min(timing_on, key=lambda r: r.p50_epoch_ms)
    best_off = min(timing_off, key=lambda r: r.p50_epoch_ms)
    speedup_p50 = best_off.p50_epoch_ms / best_on.p50_epoch_ms
    speedup_rate = max(r.epochs_per_sec for r in timing_on) / max(
        r.epochs_per_sec for r in timing_off
    )

    # Separate deterministic allocation pass per arm (tracemalloc costs wall
    # time, so it never touches the timing repetitions above).
    alloc_on = _loadgen(arena=True, alloc_profile=True)
    alloc_off = _loadgen(arena=False, alloc_profile=True)
    alloc_reduction = alloc_off.alloc_bytes_per_epoch / alloc_on.alloc_bytes_per_epoch

    identical = _streams_identical()

    phase_lines = [
        f"    {phase:>10s}: {alloc_on.phase_alloc_bytes_per_epoch[phase]:10.0f} B"
        f"  (spec {alloc_off.phase_alloc_bytes_per_epoch[phase]:10.0f} B)"
        for phase in sorted(alloc_on.phase_alloc_bytes_per_epoch)
    ]
    lines = [
        format_loadgen([best_on, best_off]),
        "",
        f"Throughput gates on {LABEL} ({ALGORITHM}, {POLICY}, "
        f"{MEASUREMENT} measurement, {CHURN.num_joins}+{CHURN.num_leaves}+"
        f"{CHURN.num_moves} events/epoch, best of {REPS} interleaved reps):",
        f"  epochs/sec:            {best_on.epochs_per_sec:8.1f}  "
        f"(spec {best_off.epochs_per_sec:8.1f})",
        f"  events/sec:            {best_on.events_per_sec:8.1f}  "
        f"(spec {best_off.events_per_sec:8.1f})",
        f"  p50 / p99 epoch wall:  {best_on.p50_epoch_ms:.3f} / {best_on.p99_epoch_ms:.3f} ms  "
        f"(spec {best_off.p50_epoch_ms:.3f} / {best_off.p99_epoch_ms:.3f} ms)",
        f"  speedup (min-p50):     {speedup_p50:8.3f}x  (recorded, not gated)",
        f"  speedup (epochs/sec):  {speedup_rate:8.3f}x",
        f"  alloc bytes/epoch:     {alloc_on.alloc_bytes_per_epoch:8.0f}  "
        f"(spec {alloc_off.alloc_bytes_per_epoch:8.0f})",
        f"  alloc reduction:       {alloc_reduction:8.2f}x  (gate >= {ALLOC_GATE}x)",
        "  per-phase steady-state alloc (arena on vs spec):",
        *phase_lines,
        f"  record stream arena on/off: {'bit-identical' if identical else 'MISMATCH'}",
    ]
    record("throughput", "\n".join(lines))

    def _result_payload(result):
        return {
            "epochs_per_sec": result.epochs_per_sec,
            "events_per_sec": result.events_per_sec,
            "p50_epoch_ms": result.p50_epoch_ms,
            "p99_epoch_ms": result.p99_epoch_ms,
            "phase_seconds": result.phase_seconds,
        }

    record_json(
        {
            "label": LABEL,
            "algorithm": ALGORITHM,
            "policy": POLICY,
            "measurement_backend": MEASUREMENT,
            "events_per_epoch": best_on.events_per_epoch,
            "reps": REPS,
            "epochs": EPOCHS,
            "warmup": WARMUP,
            "alloc_epochs": ALLOC_EPOCHS,
            "arena_on": _result_payload(best_on),
            "arena_off": _result_payload(best_off),
            "speedup_min_p50": speedup_p50,
            "speedup_epochs_per_sec": speedup_rate,
            "alloc_bytes_per_epoch_on": alloc_on.alloc_bytes_per_epoch,
            "alloc_bytes_per_epoch_off": alloc_off.alloc_bytes_per_epoch,
            "phase_alloc_bytes_per_epoch_on": alloc_on.phase_alloc_bytes_per_epoch,
            "phase_alloc_bytes_per_epoch_off": alloc_off.phase_alloc_bytes_per_epoch,
            "alloc_reduction": alloc_reduction,
            "arena_stats": alloc_on.arena_stats,
            "record_stream_identical": identical,
            "gates": {"alloc_reduction": ALLOC_GATE},
        },
        RESULTS_PATH,
    )

    assert identical, "arena on/off record streams diverged"
    assert alloc_reduction >= ALLOC_GATE, (
        f"steady-state alloc reduction {alloc_reduction:.2f}x below the "
        f"{ALLOC_GATE}x gate ({alloc_off.alloc_bytes_per_epoch:.0f} -> "
        f"{alloc_on.alloc_bytes_per_epoch:.0f} B/epoch)"
    )
