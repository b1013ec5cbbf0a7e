"""Golden rendered text of the replicated experiments.

Each entry runs one driver on a small input and renders it with the
driver's own formatter.  The seven replicated sweeps are ``table1``,
``table4``, ``figure5``, ``figure6``, ``delay-bound``, ``baselines`` and
``ablation``; every sweep has two points on
``5s-15z-200c-100cp``-sized worlds, one or two runs and seed 7.  The five
engine studies are ``table3``, ``dynamics``, ``scenarios``, ``controller``
and ``federation``; each runs on ``5s-15z-200c-100cp`` with seed 7, one or
two runs and two to six epochs.  The ablation's ``runtime (ms)`` column is
wall time, so :func:`render` blanks it.  ``tests/test_golden_experiments.py``
compares the live text against ``experiments.json``; any change to a sweep
point, a seed stream, a cell format or a table layout shows up as a
mismatch.

Regenerate ``experiments.json`` (only when a change of the output is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.experiments_corpus
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.dynamics.churn import ChurnSpec
from repro.experiments.ablation import format_ablation, run_ablation
from repro.experiments.baselines_compare import (
    format_baseline_comparison,
    run_baseline_comparison,
)
from repro.experiments.controller import format_controller, run_controller
from repro.experiments.delay_bound import format_delay_bound, run_delay_bound
from repro.experiments.dynamics import format_dynamics, run_dynamics
from repro.experiments.federation import format_federation, run_federation
from repro.experiments.figure5 import format_figure5, run_figure5
from repro.experiments.figure6 import format_figure6, run_figure6
from repro.experiments.scenarios import format_scenarios, run_scenarios
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table3 import format_table3, run_table3
from repro.experiments.table4 import format_table4, run_table4

GOLDEN_PATH = Path(__file__).resolve().parent / "experiments.json"

LABEL = "5s-15z-200c-100cp"
#: A second, smaller world for the sweeps whose points are configurations.
SECOND_LABEL = "4s-12z-150c-80cp"
SEED = 7
ALGORITHMS = ("ranz-virc", "grez-grec")
#: Per-epoch churn of the engine studies, sized for a 200-client world.
CHURN = ChurnSpec(num_joins=20, num_leaves=20, num_moves=20)

#: Header of the ablation column that holds wall time.
RUNTIME_HEADER = "runtime (ms)"


def _blank_runtime_column(text: str) -> str:
    """Cut the ``runtime (ms)`` column (the last one) from every table row."""
    lines = text.splitlines()
    header_index = next(i for i, line in enumerate(lines) if RUNTIME_HEADER in line)
    start = lines[header_index].index(RUNTIME_HEADER)
    rows = [line[:start].rstrip() for line in lines[header_index + 2 :]]
    return "\n".join(lines[: header_index + 2] + rows)


CASES: Dict[str, Callable[[], str]] = {
    "table1": lambda: format_table1(
        run_table1(
            labels=(LABEL, SECOND_LABEL),
            algorithms=ALGORITHMS,
            num_runs=2,
            seed=SEED,
            optimal_labels=(LABEL,),
        )
    ),
    "table4": lambda: format_table4(
        run_table4(
            label=LABEL, error_factors=(1.2, 2.0), algorithms=ALGORITHMS, num_runs=2, seed=SEED
        )
    ),
    "figure5": lambda: format_figure5(
        run_figure5(
            label=LABEL, correlations=(0.0, 1.0), algorithms=ALGORITHMS, num_runs=2, seed=SEED
        )
    ),
    "figure6": lambda: format_figure6(
        run_figure6(label=LABEL, types=(0, 3), algorithms=ALGORITHMS, num_runs=1, seed=SEED)
    ),
    "delay-bound": lambda: format_delay_bound(
        run_delay_bound(
            label=LABEL,
            bounds_ms=(150.0, 300.0),
            algorithms=("ranz-virc", "grez-virc", "grez-grec"),
            num_runs=2,
            seed=SEED,
        )
    ),
    "baselines": lambda: format_baseline_comparison(
        run_baseline_comparison(
            labels=(LABEL, SECOND_LABEL),
            solvers=("grez-grec", "nearest-server", "load-balance"),
            num_runs=1,
            seed=SEED,
        ),
    ),
    "ablation": lambda: _blank_runtime_column(
        format_ablation(
            run_ablation(
                label=LABEL,
                variants=("grez-grec", "grez-grec-dynamic", "load-balance"),
                num_runs=2,
                seed=SEED,
            )
        )
    ),
    "table3": lambda: format_table3(
        run_table3(label=LABEL, algorithms=ALGORITHMS, num_runs=2, seed=SEED, churn=CHURN)
    ),
    "dynamics": lambda: format_dynamics(
        run_dynamics(
            label=LABEL,
            algorithms=ALGORITHMS,
            num_runs=2,
            seed=SEED,
            num_epochs=3,
            policy="incremental",
            churn=CHURN,
        )
    ),
    "scenarios": lambda: format_scenarios(
        run_scenarios(
            label=LABEL,
            scenarios=("flash-crowd", "regional-outage"),
            num_runs=1,
            seed=SEED,
            num_epochs=6,
        )
    ),
    "controller": lambda: format_controller(
        run_controller(label=LABEL, num_runs=2, seed=SEED, num_epochs=3, churn=CHURN)
    ),
    "federation": lambda: format_federation(
        run_federation(
            label=LABEL,
            num_shards=2,
            arbiters=("static", "proportional"),
            num_runs=2,
            seed=SEED,
            num_epochs=2,
        )
    ),
}


def render(name: str) -> str:
    """The rendered text of one case (wall-time cells blanked)."""
    return CASES[name]()


def main() -> None:
    corpus = {name: render(name) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")
    print(f"wrote the rendered text of {len(corpus)} experiments to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
