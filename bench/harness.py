"""Parent side of ``python -m bench run``: rounds, aggregation, results.

Each round runs in a fresh child process (:mod:`bench.child`) with one
BLAS/OpenMP thread.  Rounds of the requested workloads are interleaved
round-robin (A1 B1 C1 D1 A2 ...), so a stretch of slow host hits every
workload alike; round ``r`` uses seed ``S + r`` and a fixed op count, so
two commits measured with the same arguments do the same work.  End-to-end
timings use the children's host-calibrated walls (see :mod:`bench.child`);
the raw walls are kept as diagnostics.  A traced pass (``--trace 1``) adds
one round per workload with the seed and op count of round 0; its records
must hash to round 0's digest.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

__all__ = ["ROOT", "ROUNDS", "load_spec", "quartiles", "summarize", "run"]

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Timed rounds per workload; set-up and RSS are medians over these.
ROUNDS = 5
#: A round still running after this many seconds plus five times its
#: nominal length is killed, and the run fails.
ROUND_TIMEOUT_S = 20


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric units, directions and bounds."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _git_revision() -> str:
    # GIT_CEILING_DIRECTORIES stops git from reporting an enclosing repository
    # when the benchmark runs from an exported (non-git) checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _spawn_round(workload: str, seed: int, seconds: float, trace_out: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=ROUND_TIMEOUT_S + 5 * seconds, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round (seed {seed}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def _pct(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(rounds: list[dict], spec: dict, traced: dict | None = None) -> dict:
    """Aggregate one workload's rounds into its metrics and checks."""
    timed = [r for r in rounds if r["op_ms"]]
    if not timed:
        raise RuntimeError(f"{rounds[0]['workload']}: no round completed an op")
    walls = [w for r in timed for w in r["ref_op_ms"]]
    per_round = {
        "ops_per_s": [len(r["ref_op_ms"]) * 1e3 / sum(r["ref_op_ms"]) for r in timed],
        "op_p50_ms": [statistics.median(r["ref_op_ms"]) for r in timed],
        "setup_s": [r["ref_setup_s"] for r in timed],
        "peak_rss_mb": [r["rss_mb"] for r in timed],
        "pqos_mean": [r["pqos_sum"] / len(r["op_ms"]) for r in timed],
    }
    values = {name: statistics.median(v) for name, v in per_round.items()}
    # The latency median and pQoS pool every op of every round.
    values["op_p50_ms"] = statistics.median(walls)
    values["pqos_mean"] = sum(r["pqos_sum"] for r in timed) / len(walls)
    pooled = {"op_p50_ms", "pqos_mean"}
    metrics = {
        m["name"]: {
            "value": values[m["name"]],
            "unit": m["unit"],
            "samples": len(walls) if m["name"] in pooled else len(timed),
            "rounds": per_round[m["name"]],
            "round_quartiles": quartiles(per_round[m["name"]]),
        }
        for m in spec["end_to_end"]
    }

    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    clients = sum(r["attempted_clients"] for r in rounds)
    raw_walls = [w for r in timed for w in r["op_ms"]]
    diagnostics = {
        "error_rate": failed / attempted,
        "degraded_share": sum(r["degraded_clients"] for r in rounds) / clients if clients else 0.0,
        # The tail moves with the host's short stalls more than calibration
        # can follow, so it is reported but carries no bound.
        "op_p90_ms": _pct(walls, 90),
        "raw_ops_per_s": statistics.median(len(r["op_ms"]) * 1e3 / sum(r["op_ms"]) for r in timed),
        "raw_op_p50_ms": statistics.median(raw_walls),
        "raw_setup_s": statistics.median(r["setup_s"] for r in timed),
        "calib_ms": statistics.median(r["calib_ms"] for r in rounds),
    }
    if len(walls) >= 1000:
        diagnostics["op_p99_ms"] = _pct(walls, 99)
    result = {
        "ops_per_round": rounds[0]["ops"],
        "seeds": [r["seed"] for r in rounds],
        "digests": [r["digest"] for r in rounds],
        "calib_ms": [r["calib_ms"] for r in rounds],
        "metrics": metrics,
        "diagnostics": diagnostics,
        "failures": [f for r in rounds for f in r["failures"]],
    }
    if traced is not None:
        attempted += traced["ops"]
        failed += traced["failed"]
        per_layer = dict(traced["per_layer"])
        traced_p50 = statistics.median(traced["ref_op_ms"]) if traced["op_ms"] else float("nan")
        per_layer["trace.overhead"] = traced_p50 / values["op_p50_ms"] - 1.0
        result["per_layer"] = per_layer
        if traced["digest"] != rounds[0]["digest"]:
            result["failures"].append("traced round's records differ from round 0's")
            failed += traced["ops"]
        result["failures"] += traced["failures"]
    result["attempted"] = attempted
    result["failed"] = failed
    result["correct"] = failed == 0 and not result["failures"]
    return result


def _print_workload(name: str, result: dict, spec: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:<19} {metric:<15} {m['value']:>14.6g} {m['unit']:<9} n={m['samples']}")
    for metric, value in result["diagnostics"].items():
        print(f"{name:<19} {metric:<15} {value:>14.6g} {'':<9} (diagnostic)")
    if "per_layer" in result:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for metric, value in result["per_layer"].items():
            print(f"{name:<19} {metric:<58} {value:>12.6g} {units[metric]}")
    for failure in result["failures"]:
        print(f"{name:<19} FAILED: {failure}")


def run(workloads: list[str], seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    """Measure ``workloads``, print every metric, write ``results.json``.

    Returns the exit code: 0 when every output check passed.
    """
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    round_seconds = seconds / ROUNDS
    rounds: dict[str, list[dict]] = {name: [] for name in workloads}
    for r in range(ROUNDS):
        for name in workloads:
            rounds[name].append(_spawn_round(name, seed + r, round_seconds, None))
    traced = {
        name: _spawn_round(name, seed, round_seconds, out_dir / f"trace-{name}.json")
        for name in (workloads if trace else ())
    }

    first = rounds[workloads[0]][0]
    host = dict(first["host"], revision=_git_revision())
    host["calib_ms"] = statistics.median(r["calib_ms"] for rs in rounds.values() for r in rs)
    results = {
        "host": host,
        "seed": seed,
        "seconds": seconds,
        "rounds": ROUNDS,
        "workloads": {
            name: summarize(rounds[name], spec, traced.get(name)) for name in workloads
        },
    }
    with open(out_dir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    for name, result in results["workloads"].items():
        _print_workload(name, result, spec)
    print(f"results: {out_dir / 'results.json'}")

    section = "per_layer" if trace else "metrics"
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, result in results["workloads"].items():
        line["correct"] &= result["correct"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        for metric, unit in units.items():
            value = result[section][metric]
            key = metric if len(workloads) == 1 else f"{name}.{metric}"
            line["metrics"][key] = {
                "value": value["value"] if isinstance(value, dict) else value,
                "unit": unit,
            }
    print(json.dumps(line))
    return 0 if line["correct"] else 1
