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
"""

from __future__ import annotations

import tracemalloc

from repro.core.two_phase import solve_cap

#: 7.25 MiB measured, plus 5 %.
PEAK_BOUND_MIB = 7.61


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
