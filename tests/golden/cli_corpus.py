"""Golden option tables and rendered output of the command-line interface.

``cli_options.json`` records, for each of ``simulate``, ``loadgen``,
``federate``, ``solve`` and ``experiment``, every option argparse shows
under ``--help``: its flag strings, action kind, default, choices,
``nargs``, metavar, type name and help text.  Options are keyed by their
first flag, positionals by their destination name.  The table is
structural rather than the rendered help text, so it does not depend on the
terminal width or on the Python version's help layout.

``cli_output.json`` records what the engine commands print: for every case
in :data:`OUTPUT_CASES`, run on ``5s-15z-200c-100cp``, the stdout and the
sha256 of the ``--csv`` stream (``loadgen`` has no ``--csv``).  Wall-time
and tracemalloc numbers are cut (see :func:`_cut_timed_cells`): the cells of the two
``--profile`` tables, the arbiter seconds in the shard-profile title and
``loadgen``'s measured row, and past a table's kept columns the widths its
header and rule take from those cells.  Tracemalloc byte counts differ
between Python versions.

``tests/test_cli.py`` compares the live parser and output against both
files, so a change to a flag's name, default or help text, to a summary
cell or to a table layout shows up as a mismatch.

Regenerate both files (only when a change of the options or the output is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.cli_corpus
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import tempfile
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional

from repro.cli import build_parser, main as cli_main

GOLDEN_PATH = Path(__file__).resolve().parent / "cli_options.json"
OUTPUT_PATH = Path(__file__).resolve().parent / "cli_output.json"

COMMANDS = ("simulate", "loadgen", "federate", "solve", "experiment")

LABEL = "5s-15z-200c-100cp"

#: Engine command lines whose rendered output is pinned; every case runs on
#: :data:`LABEL`, and ``simulate``/``federate`` also stream ``--csv``.
OUTPUT_CASES: Dict[str, List[str]] = {
    "simulate": ["simulate"],
    "simulate/runs=2": ["simulate", "--runs", "2", "--algorithms", "grez-grec", "ranz-virc"],
    "simulate/regional-outage": ["simulate", "--scenario", "regional-outage", "--patience", "2"],
    "simulate/server-churn": [
        *["simulate", "--server-churn", "1:1:0.05", "--migration-cost", "1"],
        *["--migration-budget", "50", "--policy", "every_k_epochs", "--period", "2"],
    ],
    "simulate/profile": ["simulate", "--profile"],
    "simulate/profile-runs=2": ["simulate", "--profile", "--runs", "2"],
    "federate": ["federate"],
    "federate/runs=2": [
        *["federate", "--runs", "2", "--shard-weights", "1,1,2", "--arbiter", "regret"],
    ],
    "federate/shards=2-diurnal": ["federate", "--shards", "2", "--scenario", "diurnal"],
    "federate/profile": ["federate", "--profile"],
    "loadgen": ["loadgen"],
}

#: Title prefix of each table whose cells are wall time or tracemalloc
#: bytes, and how many leading (label) columns of its rows are kept.
_TIMED_TABLES = {
    "Phase breakdown over": 1,
    "Shard runtime over": 1,
    "Epoch throughput:": 0,
}


def option_table(command: str) -> Dict[str, dict]:
    """``{first flag: option properties}`` of one sub-command, in ``--help`` order.

    A positional has no flag and is keyed by its destination name.
    """
    parser = build_parser()
    (subparsers,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    table = {}
    for action in subparsers.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = action.option_strings[0] if action.option_strings else action.dest
        table[key] = {
            "flags": list(action.option_strings),
            "action": type(action).__name__,
            "default": repr(action.default),
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "metavar": action.metavar,
            "type": getattr(action.type, "__name__", None),
            "help": action.help,
        }
    return table


def _cut_timed_cells(text: str) -> str:
    """Blank every wall-time and allocation number in ``text``."""
    text = re.sub(r"arbiter decisions \S+s total", "arbiter decisions <cut> total", text)
    lines = text.split("\n")
    out: List[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        keep = next((n for title, n in _TIMED_TABLES.items() if line.startswith(title)), None)
        if keep is None:
            out.append(line)
            index += 1
            continue
        header, rule = lines[index + 1], lines[index + 2]
        widths = [len(dashes) for dashes in rule.split("  ")]
        width = sum(w + 2 for w in widths[:keep])
        # A timed column is as wide as its widest value, so past the kept
        # columns the header and rule take each header cell's own width.
        starts = accumulate((w + 2 for w in widths[:-1]), initial=0)
        cells = [header[start : start + w].rstrip() for start, w in zip(starts, widths)]
        widths = widths[:keep] + [len(cell) for cell in cells[keep:]]
        out.append(line)
        out.append("  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip())
        out.append("  ".join("-" * w for w in widths))
        index += 3
        while index < len(lines) and lines[index].strip():
            if keep:
                out.append(lines[index][:width].rstrip())
            index += 1
    return "\n".join(out)


def render(case: str, directory: Path) -> Dict[str, Optional[str]]:
    """Run one output case; its stdout (timings cut) and ``--csv`` sha256."""
    argv = [*OUTPUT_CASES[case], "--config", LABEL]
    csv_path = directory / f"{case.replace('/', '_')}.csv"
    streams_csv = argv[0] != "loadgen"
    if streams_csv:
        argv += ["--csv", str(csv_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with status {code}")
    return {
        "stdout": _cut_timed_cells(stdout.getvalue().replace(str(csv_path), "<csv>")),
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest() if streams_csv else None,
    }


def main() -> None:
    corpus = {command: option_table(command) for command in COMMANDS}
    # Options stay in parser order: the order ``--help`` lists them in.
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")
    print(f"wrote the option tables of {len(corpus)} commands to {GOLDEN_PATH}")
    with tempfile.TemporaryDirectory() as directory:
        output = {case: render(case, Path(directory)) for case in OUTPUT_CASES}
    OUTPUT_PATH.write_text(json.dumps(output, indent=2) + "\n", encoding="utf-8")
    print(f"wrote the rendered output of {len(output)} cases to {OUTPUT_PATH}")


if __name__ == "__main__":
    main()
