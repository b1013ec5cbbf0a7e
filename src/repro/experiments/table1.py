"""Experiment E1 — Table 1: pQoS (R) across DVE configurations.

Reproduces the paper's Table 1: for each of the four DVE configurations
(5s-15z-200c-100cp … 30s-160z-2000c-1000cp) and each of the four two-phase
algorithms, report the mean fraction of clients with QoS and (in brackets) the
server resource utilisation, plus the exact MILP baseline on the two small
configurations where it is tractable.
"""

from __future__ import annotations

from repro.experiments.config import PAPER_SMALL_LABELS, PAPER_TABLE1_LABELS, ExperimentSpec
from repro.experiments.paper_values import PAPER_TABLE1_PQOS, PAPER_TABLE1_UTILIZATION
from repro.experiments.runner import SweepResult, qos_cell, sweep_labels
from repro.io.tables import format_table

__all__ = ["TABLE1", "format_table1"]


def format_table1(result: SweepResult) -> str:
    """Render the measured and the paper's Table 1."""
    columns = [*result.algorithms, "optimal"]
    headers = ["DVE conf.", *result.algorithms, "optimal (MILP)"]
    measured = [[label] + [result.cell(label, name) for name in columns] for label in result.keys]
    parts = [
        format_table(
            headers,
            measured,
            title="Table 1 (measured): pQoS (resource utilisation) per configuration",
        )
    ]
    paper = []
    for label in result.keys:
        pqos = PAPER_TABLE1_PQOS.get(label, {})
        util = PAPER_TABLE1_UTILIZATION.get(label, {})
        paper.append(
            [label]
            + [
                qos_cell(pqos[name], util.get(name, float("nan"))) if name in pqos else "-"
                for name in columns
            ]
        )
    parts.append("")
    parts.append(
        format_table(
            headers[:-1] + ["lp_solve"],
            paper,
            title="Table 1 (paper): pQoS (resource utilisation) per configuration",
        )
    )
    return "\n".join(parts)


#: Table 1: the paper's four configurations with the exact MILP on the two
#: small ones (``lp_solve`` in the paper, HiGHS here), a fresh topology every run.
TABLE1 = ExperimentSpec(
    experiment_id="table1",
    paper_artifact="Table 1",
    description="pQoS and resource utilisation across the four DVE configurations",
    execute=sweep_labels,
    format=format_table1,
    labels=PAPER_TABLE1_LABELS,
    exact_labels=PAPER_SMALL_LABELS,
    share_topology=False,
)
