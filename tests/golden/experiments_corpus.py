"""Golden rendered text of the replicated experiments.

Each shrunk entry runs one experiment spec, shrunk with
``dataclasses.replace``, through :func:`repro.experiments.config.run` and
renders it with the spec's own formatter.  The seven replicated sweeps are
``table1``, ``table4``, ``figure5``, ``figure6``, ``delay-bound``,
``baselines`` and ``ablation``; every sweep has two points on
``5s-15z-200c-100cp``-sized worlds, one or two runs and seed 7.  The five
engine studies are ``table3``, ``dynamics``, ``scenarios``, ``controller``
and ``federation``; each runs on ``5s-15z-200c-100cp`` with seed 7, one or
two runs and two to six epochs.  The other entries pin each experiment's
defaults: they render ``repro-dve experiment <id> --runs 1`` for all 14
ids, ``repro-dve list``, and ``experiment runtime --runs 1 --workers 2``
with its serial-only note.  The ablation's ``runtime (ms)`` column and the
runtime table past its four label columns are wall time, so :func:`render`
blanks them.  ``tests/test_golden_experiments.py`` compares the live text
against ``experiments.json``; any change to a sweep point, a default, a seed
stream, a cell format or a table layout shows up as a mismatch.

Regenerate ``experiments.json`` (only when a change of the output is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.experiments_corpus
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import repro.baselines  # noqa: F401 - registers the baseline solvers
from repro.cli import main as cli_main
from repro.dynamics.churn import ChurnSpec
from repro.experiments.ablation import ABLATION
from repro.experiments.baselines_compare import BASELINES
from repro.experiments.config import ExperimentConfig, ExperimentSpec, run
from repro.experiments.controller import CONTROLLER
from repro.experiments.delay_bound import DELAY_BOUND
from repro.experiments.dynamics import DYNAMICS
from repro.experiments.federation import FEDERATION
from repro.experiments.figure5 import FIGURE5
from repro.experiments.figure6 import FIGURE6
from repro.experiments.scenarios import SCENARIOS
from repro.experiments.table1 import TABLE1
from repro.experiments.table3 import TABLE3
from repro.experiments.table4 import TABLE4

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
#: Header of the runtime table's first timed column (its first solver).
FIRST_SOLVER_HEADER = "ranz-virc"
#: The experiment ids, each pinned at its defaults through the CLI.
EXPERIMENT_IDS = (
    "table1",
    "table3",
    "table4",
    "figure4",
    "figure5",
    "figure6",
    "ablation",
    "baselines",
    "delay-bound",
    "runtime",
    "dynamics",
    "scenarios",
    "controller",
    "federation",
)


def _blank_runtime_column(text: str, header: str = RUNTIME_HEADER) -> str:
    """Cut every table row from the ``header`` column on (the timed columns are last)."""
    lines = text.splitlines()
    header_index = next(i for i, line in enumerate(lines) if header in line)
    start = lines[header_index].index(header)
    rows = [line[:start].rstrip() for line in lines[header_index + 2 :]]
    return "\n".join(lines[: header_index + 2] + rows)


def _cli(*argv: str) -> str:
    """What ``repro-dve <argv>`` prints, its timed cells blanked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0, argv
    text = out.getvalue()
    if argv[:2] == ("experiment", "ablation"):
        return _blank_runtime_column(text)
    if argv[:2] == ("experiment", "runtime"):
        return _blank_runtime_column(text, FIRST_SOLVER_HEADER)
    return text


def _render(spec: ExperimentSpec, num_runs: int, **shrink: object) -> str:
    """``spec`` shrunk by ``shrink``, run with seed :data:`SEED` and rendered."""
    spec = replace(spec, **shrink)
    return spec.format(run(spec, ExperimentConfig(num_runs=num_runs, seed=SEED)))


CASES: Dict[str, Callable[[], str]] = {
    "table1": lambda: _render(
        TABLE1, 2, labels=(LABEL, SECOND_LABEL), algorithms=ALGORITHMS, exact_labels=(LABEL,)
    ),
    "table4": lambda: _render(TABLE4, 2, labels=(LABEL,), sweep=(1.2, 2.0), algorithms=ALGORITHMS),
    "figure5": lambda: _render(
        FIGURE5, 2, labels=(LABEL,), sweep=(0.0, 1.0), algorithms=ALGORITHMS
    ),
    "figure6": lambda: _render(FIGURE6, 1, labels=(LABEL,), sweep=(0, 3), algorithms=ALGORITHMS),
    "delay-bound": lambda: _render(
        DELAY_BOUND,
        2,
        labels=(LABEL,),
        sweep=(150.0, 300.0),
        algorithms=("ranz-virc", "grez-virc", "grez-grec"),
    ),
    "baselines": lambda: _render(
        BASELINES,
        1,
        labels=(LABEL, SECOND_LABEL),
        algorithms=("grez-grec", "nearest-server", "load-balance"),
    ),
    "ablation": lambda: _blank_runtime_column(
        _render(
            ABLATION,
            2,
            labels=(LABEL,),
            algorithms=("grez-grec", "grez-grec-dynamic", "load-balance"),
        )
    ),
    "table3": lambda: _render(TABLE3, 2, labels=(LABEL,), algorithms=ALGORITHMS, churn=CHURN),
    "dynamics": lambda: _render(
        DYNAMICS,
        2,
        labels=(LABEL,),
        algorithms=ALGORITHMS,
        num_epochs=3,
        policy="incremental",
        churn=CHURN,
    ),
    "scenarios": lambda: _render(
        SCENARIOS, 1, labels=(LABEL,), sweep=("flash-crowd", "regional-outage"), num_epochs=6
    ),
    "controller": lambda: _render(CONTROLLER, 2, labels=(LABEL,), num_epochs=3, churn=CHURN),
    "federation": lambda: _render(
        FEDERATION,
        2,
        labels=(LABEL,),
        num_shards=2,
        sweep=("static", "proportional"),
        num_epochs=2,
    ),
}

#: The CLI entries: every experiment at its defaults, ``list``, and the
#: runtime experiment's serial-only note.
CLI_ARGVS = [
    *(("experiment", experiment_id, "--runs", "1") for experiment_id in EXPERIMENT_IDS),
    ("list",),
    ("experiment", "runtime", "--runs", "1", "--workers", "2"),
]
CASES.update({" ".join(argv): functools.partial(_cli, *argv) for argv in CLI_ARGVS})


def render(name: str) -> str:
    """The rendered text of one case (wall-time cells blanked)."""
    return CASES[name]()


def main() -> None:
    corpus = {name: render(name) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")
    print(f"wrote the rendered text of {len(corpus)} experiments to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
