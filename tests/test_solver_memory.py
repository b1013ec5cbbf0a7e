"""Transient memory of one GreZ-GreC solve on the 100k-client sparse world.

GreZ reads the sparse matrix's zones x K initial-cost table and GreC builds
a needy-clients x K refined-cost table.  On the solver corpus's
``500s-2000z-100000c-130000cp`` world with top-64 candidate sets, neither
makes full-size temporaries: the cost table's counts and their product are
made once per chunk of zone rows, and the candidate gathers, the mesh leg
and the regret partition run in row chunks.  This guard keeps it so: the
tracemalloc peak above the baseline of a warm solve must stay under
:data:`PEAK_BOUND_MIB`, the measured peak plus 5 % (tracemalloc counts,
Python 3.11, numpy 2.4).  With the full-size temporaries it measured
16.8 MiB, and without them 12.27 MiB.  Since GreZ stopped building its
zones x servers table, a warm GreZ alone peaks at 2.01 MiB (11.85 MiB
before), so the peak is GreC's.  GreC's pass now keeps one per-needy-client
table, the float64 candidate costs: it reads the candidate server ids from
the matrix's shared zones x K table instead of copying them per client, and
gathers the whole population's direct delays without index copies.  That
took the peak from 12.27 to 7.25 MiB.

A second guard covers a whole warm re-execute epoch on the same rung, the
``reexec-100k`` benchmark's world and churn: the tracemalloc peak of its
third epoch, traced from before the world is built, so it counts what the
session keeps alive as well as the epoch's transients.  It must stay under
:data:`EPOCH_PEAK_BOUND_MIB`, the measured peak plus 5 %.  With the initial
world kept alive by the session, power-of-two arena buckets, the incremental
column repaired after the re-execution, GreC's contacts copied from its
targets and the candidate table held twice, it measured 32.53 MiB.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.core.two_phase import solve_cap
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.engine import ChurnSimulator
from repro.experiments.config import config_from_label
from repro.world.scenario import build_scenario

#: 7.25 MiB measured, plus 5 %.
PEAK_BOUND_MIB = 7.61
#: 24.95 MiB measured, plus 5 %.
EPOCH_PEAK_BOUND_MIB = 26.20


def test_sparse_100k_solve_peak_stays_under_bound(sparse_100k_instance):
    # The first solve fills the instance's lazy caches (candidate mask,
    # sorted candidate sets, GreZ's cost table, zone demands); only the
    # second one is measured.
    solve_cap(sparse_100k_instance, "grez-grec")
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        solve_cap(sparse_100k_instance, "grez-grec")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mib = (peak - baseline) / 2**20
    assert peak_mib < PEAK_BOUND_MIB, f"GreZ-GreC transient peak {peak_mib:.2f} MiB"


def test_warm_100k_reexecute_epoch_peak_stays_under_bound():
    tracemalloc.start()
    try:
        config = config_from_label("500s-2000z-100000c-130000cp").with_updates(
            delay_backend="sparse", sparse_top_k=64
        )
        # The caller keeps only the session, as a long-running driver does.
        session = ChurnSimulator(
            scenario=build_scenario(config, seed=0),
            algorithms=["grez-grec"],
            churn_spec=ChurnSpec(num_joins=1000, num_leaves=1000, num_moves=1000),
            seed=0,
            policy="reexecute",
        ).session(3)
        session.run_epoch()
        session.run_epoch()
        gc.collect()
        tracemalloc.reset_peak()
        session.run_epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mib = peak / 2**20
    assert peak_mib < EPOCH_PEAK_BOUND_MIB, f"warm re-execute epoch peak {peak_mib:.2f} MiB"
