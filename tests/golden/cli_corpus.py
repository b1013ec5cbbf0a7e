"""Golden option tables of the engine commands' ``--help``.

For each of ``simulate``, ``loadgen`` and ``federate`` this records every
option argparse shows under ``--help``: its flag strings, action kind,
default, choices, ``nargs``, metavar, type name and help text.  The table is
structural rather than the rendered help text, so it does not depend on the
terminal width or on the Python version's help layout.
``tests/test_cli.py`` compares the live parser against it, so a change to a
flag's name, default or help text shows up as a mismatch.

Regenerate ``cli_options.json`` (only when a change of the options is
intended) from the repository root with::

    PYTHONPATH=src python -m tests.golden.cli_corpus
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict

from repro.cli import build_parser

GOLDEN_PATH = Path(__file__).resolve().parent / "cli_options.json"

COMMANDS = ("simulate", "loadgen", "federate")


def option_table(command: str) -> Dict[str, dict]:
    """``{first flag: option properties}`` of one sub-command, in ``--help`` order."""
    parser = build_parser()
    (subparsers,) = (
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    table = {}
    for action in subparsers.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        table[action.option_strings[0]] = {
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


def main() -> None:
    corpus = {command: option_table(command) for command in COMMANDS}
    # Options stay in parser order: the order ``--help`` lists them in.
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=2) + "\n", encoding="utf-8")
    print(f"wrote the option tables of {len(corpus)} commands to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
