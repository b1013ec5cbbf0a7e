"""The numbers reported by the paper, for side-by-side comparison.

These are transcribed from the paper's Tables 1, 3 and 4 (pQoS with resource
utilisation in brackets where given) and from the qualitative description of
Figures 4-6.  The Table 1, 3 and 4 formatters print them under the
measured tables (``repro-dve experiment table1``; the benchmark tests record
the same text in ``benchmarks/results/*.txt``), and the integration tests
assert the *shape* relations (orderings, trends) rather than the absolute
values, which depend on the authors' exact topology instances.
"""

from __future__ import annotations

__all__ = [
    "PAPER_TABLE1_PQOS",
    "PAPER_TABLE1_UTILIZATION",
    "PAPER_TABLE3_PQOS",
    "PAPER_TABLE4_PQOS",
    "PAPER_TABLE4_UTILIZATION",
    "PAPER_ALGORITHM_ORDER",
]

#: Algorithm column order used by the paper's tables.
PAPER_ALGORITHM_ORDER = ("ranz-virc", "ranz-grec", "grez-virc", "grez-grec")

#: Table 1 — pQoS per configuration and algorithm ("optimal" = lp_solve column).
PAPER_TABLE1_PQOS = {
    "5s-15z-200c-100cp": {
        "ranz-virc": 0.57,
        "ranz-grec": 0.66,
        "grez-virc": 0.79,
        "grez-grec": 0.82,
        "optimal": 0.83,
    },
    "10s-30z-400c-200cp": {
        "ranz-virc": 0.57,
        "ranz-grec": 0.69,
        "grez-virc": 0.83,
        "grez-grec": 0.88,
        "optimal": 0.89,
    },
    "20s-80z-1000c-500cp": {
        "ranz-virc": 0.61,
        "ranz-grec": 0.75,
        "grez-virc": 0.89,
        "grez-grec": 0.94,
    },
    "30s-160z-2000c-1000cp": {
        "ranz-virc": 0.58,
        "ranz-grec": 0.76,
        "grez-virc": 0.91,
        "grez-grec": 0.96,
    },
}

#: Table 1 — resource utilisation (the bracketed values).
PAPER_TABLE1_UTILIZATION = {
    "5s-15z-200c-100cp": {
        "ranz-virc": 0.60,
        "ranz-grec": 0.77,
        "grez-virc": 0.60,
        "grez-grec": 0.66,
        "optimal": 0.73,
    },
    "10s-30z-400c-200cp": {
        "ranz-virc": 0.61,
        "ranz-grec": 0.84,
        "grez-virc": 0.61,
        "grez-grec": 0.69,
        "optimal": 0.69,
    },
    "20s-80z-1000c-500cp": {
        "ranz-virc": 0.58,
        "ranz-grec": 0.88,
        "grez-virc": 0.58,
        "grez-grec": 0.66,
    },
    "30s-160z-2000c-1000cp": {
        "ranz-virc": 0.58,
        "ranz-grec": 0.93,
        "grez-virc": 0.58,
        "grez-grec": 0.65,
    },
}

#: Table 3 — pQoS around one churn batch (before / after / re-executed), δ = 0.
PAPER_TABLE3_PQOS = {
    "ranz-virc": {"before": 0.59, "after": 0.59, "executed": 0.59},
    "ranz-grec": {"before": 0.73, "after": 0.68, "executed": 0.71},
    "grez-virc": {"before": 0.83, "after": 0.79, "executed": 0.82},
    "grez-grec": {"before": 0.90, "after": 0.83, "executed": 0.90},
}

#: Table 4 — pQoS under delay-estimation error (e = 1.2 King, e = 2 IDMaps).
PAPER_TABLE4_PQOS = {
    1.2: {"ranz-virc": 0.58, "ranz-grec": 0.70, "grez-virc": 0.86, "grez-grec": 0.90},
    2.0: {"ranz-virc": 0.59, "ranz-grec": 0.57, "grez-virc": 0.80, "grez-grec": 0.78},
}

#: Table 4 — resource utilisation under delay-estimation error.
PAPER_TABLE4_UTILIZATION = {
    1.2: {"ranz-virc": 0.58, "ranz-grec": 0.91, "grez-virc": 0.58, "grez-grec": 0.67},
    2.0: {"ranz-virc": 0.58, "ranz-grec": 1.00, "grez-virc": 0.58, "grez-grec": 0.82},
}
