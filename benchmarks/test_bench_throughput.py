"""Sustained epoch throughput of the arena-backed engine.

Drives the figure-4 configuration (largest paper world, warm-start policy)
through :func:`repro.experiments.loadgen.run_loadgen`.  Reports steady-state
epochs/sec and events/sec, the p50/p99 epoch wall and the per-phase wall and
allocation split.

* **throughput** is a recorded value, not a gate: each timing repetition is
  one loadgen run, and the best p50 across repetitions is reported.
* **allocation** is gated: the steady-state tracemalloc peak bytes per epoch,
  from a separate deterministic alloc pass, must stay at or below
  ``MAX_ALLOC_BYTES_PER_EPOCH``.  The engine has no arena-free path any
  more, so the bound is absolute.  It replaces a gate of "at least 5x (smoke
  rung: 4x) below the arena-free path" and equals that path's last measured
  bytes per epoch divided by the old factor (Python 3.11.7, numpy 2.4.6:
  1,534,835 B / 5 on the full rung, 1,501,316 B / 4 on the smoke rung), so
  it is no looser than the old gate.  The arena path then measured 274,946 B
  (full) and 243,983 B (smoke).  The JSON records ``sys.version`` next to
  the bytes and the bound, because tracemalloc counts differ between
  interpreter versions.

A short record-stream probe runs the same configuration with every world
advance and every measurement checked against the test oracles
(``tests/reference/``); the exhaustive churn cross-product lives in
``tests/test_throughput_engine.py``.

Results go to ``BENCH_throughput.json`` at the repository root with
``REPRO_BENCH_UPDATE=1``.  CI's throughput-guard job runs the smoke rung
(``REPRO_BENCH_RUNS=1``) as a blocking check; the committed JSON comes from
the full rung.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.experiments.loadgen import format_loadgen, run_loadgen
from repro.world.scenario import build_scenario

from benchmarks.conftest import bench_runs, record_json
from tests.reference.measurement_full import checked_measures
from tests.reference.world_rebuild import checked_advances

pytestmark = pytest.mark.benchmark

LABEL = "30s-160z-2000c-1000cp"
ALGORITHM = "grez-grec"
POLICY = "warm_start"
#: Steady-state churn mix: 1% of the population joins, leaves and moves per
#: epoch (60 events on the figure-4 world).  This is the sustained-service
#: regime the arena targets — fixed per-epoch overheads dominate and the
#: fast path recycles essentially everything.  Heavier mixes (Table 3's
#: 200/200/200 burst) spend proportionally more in the O(churn x servers)
#: joiner-delay block and the repair sweep.
CHURN = ChurnSpec(num_joins=20, num_leaves=20, num_moves=20)

#: Timing repetitions; smoke mode runs one.
REPS = bench_runs(4)
SMOKE = REPS == 1
EPOCHS = 40 if SMOKE else 120
WARMUP = 5 if SMOKE else 15
ALLOC_EPOCHS = 10 if SMOKE else 30

#: Steady-state allocation bound in bytes per epoch (see the module
#: docstring for its derivation).  Fewer alloc epochs amortise one-off
#: interpreter allocations less well, hence the smoke rung's own bound.
MAX_ALLOC_BYTES_PER_EPOCH = 375_329 if SMOKE else 306_967

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def _simulator(seed: int = 0) -> ChurnSimulator:
    return ChurnSimulator(
        scenario=build_scenario(config_from_label(LABEL, correlation=0.0), seed=seed),
        algorithms=[ALGORITHM],
        churn_spec=CHURN,
        seed=seed,
        policy=POLICY,
    )


def _loadgen(alloc_profile: bool = False):
    return run_loadgen(
        _simulator(),
        epochs=EPOCHS,
        warmup=WARMUP,
        alloc_profile=alloc_profile,
        alloc_epochs=ALLOC_EPOCHS,
    )


def _oracle_checked_stream(epochs: int = 8) -> bool:
    """Run a short stream with every advance and measurement oracle-checked."""
    with checked_advances() as advances, checked_measures() as measures:
        _simulator(seed=3).run(epochs)
    return len(advances) == epochs and measures.count("carried_qos_count") == epochs


def test_bench_epoch_throughput(record):
    # Timing repetitions: keep the best (lowest) p50 epoch wall, so a
    # background stall in one rep cannot sink the reported number.
    timing = [_loadgen() for _ in range(REPS)]
    best = min(timing, key=lambda r: r.p50_epoch_ms)

    # Separate deterministic allocation pass (tracemalloc costs wall time,
    # so it never touches the timing repetitions above).
    alloc = _loadgen(alloc_profile=True)
    alloc_bytes = alloc.alloc_bytes_per_epoch

    checked = _oracle_checked_stream()

    phase_lines = [
        f"    {phase:>10s}: {alloc.phase_alloc_bytes_per_epoch[phase]:10.0f} B"
        for phase in sorted(alloc.phase_alloc_bytes_per_epoch)
    ]
    lines = [
        format_loadgen(best),
        "",
        f"Throughput on {LABEL} ({ALGORITHM}, {POLICY}, "
        f"{CHURN.num_joins}+{CHURN.num_leaves}+{CHURN.num_moves} events/epoch, "
        f"best of {REPS} reps):",
        f"  epochs/sec:            {best.epochs_per_sec:8.1f}  (recorded, not gated)",
        f"  events/sec:            {best.events_per_sec:8.1f}",
        f"  p50 / p99 epoch wall:  {best.p50_epoch_ms:.3f} / {best.p99_epoch_ms:.3f} ms",
        f"  alloc bytes/epoch:     {alloc_bytes:8.0f}  "
        f"(gate <= {MAX_ALLOC_BYTES_PER_EPOCH:,} B)",
        "  per-phase steady-state alloc:",
        *phase_lines,
        f"  record stream vs oracles: {'checked' if checked else 'NOT CHECKED'}",
    ]
    record("throughput", "\n".join(lines))

    record_json(
        {
            "label": LABEL,
            "algorithm": ALGORITHM,
            "policy": POLICY,
            "python": sys.version,
            "events_per_epoch": best.events_per_epoch,
            "reps": REPS,
            "epochs": EPOCHS,
            "warmup": WARMUP,
            "alloc_epochs": ALLOC_EPOCHS,
            "epochs_per_sec": best.epochs_per_sec,
            "events_per_sec": best.events_per_sec,
            "p50_epoch_ms": best.p50_epoch_ms,
            "p99_epoch_ms": best.p99_epoch_ms,
            "phase_seconds": best.phase_seconds,
            "alloc_bytes_per_epoch": alloc_bytes,
            "max_alloc_bytes_per_epoch": MAX_ALLOC_BYTES_PER_EPOCH,
            "phase_alloc_bytes_per_epoch": alloc.phase_alloc_bytes_per_epoch,
            "arena_stats": alloc.arena_stats,
            "record_stream_oracle_checked": checked,
        },
        RESULTS_PATH,
    )

    assert checked, "the oracle-checked record stream did not run every check"
    assert alloc_bytes <= MAX_ALLOC_BYTES_PER_EPOCH, (
        f"steady-state allocation {alloc_bytes:.0f} B/epoch above the "
        f"{MAX_ALLOC_BYTES_PER_EPOCH:,} B bound"
    )
