"""Command line: ``python -m bench run ...`` and ``python -m bench compare BASE NEW``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import compare, harness


def main(argv=None) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads, check outputs, write results.json")
    run.add_argument(
        "--workload", choices=names, help="workload to measure (default: all, rounds interleaved)"
    )
    run.add_argument("--seed", type=int, default=0, help="round r uses seed SEED + r")
    run.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="nominal measured seconds per workload, split over the rounds",
    )
    run.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: add a traced round per workload and report the per-layer metrics",
    )
    run.add_argument(
        "--out", type=Path, default=harness.ROOT / "bench" / "out",
        help="directory for results.json and trace-<workload>.json",
    )
    cmp = sub.add_parser("compare", help="verdicts between two results.json files")
    cmp.add_argument("base")
    cmp.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "compare":
        return compare.main(args.base, args.new, spec)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workloads = [args.workload] if args.workload else names
    return harness.run(workloads, args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
