"""One measured round, run in a fresh child process.

``python -m bench.child --workload W --seed S --seconds T [--trace-out PATH]``
builds the workload, runs its warm-up and the fixed number of timed ops that
lasts ``T`` seconds on the reference host, checks the outputs and prints one
JSON object (the round's measurements) as its last line.  The parent
(:mod:`bench.harness`) starts it with one BLAS/OpenMP thread, so a round is
one process and one thread of load.

Host-speed calibration: shared hosts run whole stretches 15-100 % slower
with the code unchanged, for longer than one round.  A fixed probe kernel
(:func:`calibrate`, no ``repro`` code) runs before set-up and every
:data:`PROBE_EVERY_S` seconds of the timed loop, outside op timing.  Each op
wall is also reported scaled by ``REF_CALIB_MS / median(nearby probes)``:
the wall the op would have taken at the probe speed of the reference host.
"""

from __future__ import annotations

import argparse
import bisect
import json
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
from repro.utils.pool import available_cpus

from bench import checks
from bench.trace import Tracer, install, uninstall
from bench.workloads import WORKLOADS

__all__ = ["REF_CALIB_MS", "calibrate", "host_fingerprint", "run_round"]

#: Seconds of timed loop between two calibration probes.
PROBE_EVERY_S = 0.2
#: Median :func:`calibrate` wall (ms) on the reference host (2 vCPU Xeon
#: x86-64, Linux, Python 3.11, numpy 2.4) in a quiet period.
REF_CALIB_MS = 1.5
#: Probes on each side of an op whose median calibrates that op.
PROBE_WINDOW = 2


def calibrate() -> float:
    """Wall (ms) of one fixed kernel that mixes the workloads' kinds of work.

    Interpreter loops, small-array numpy calls, a sort and a small matmul,
    none of it from ``repro``.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.random((96, 96))
    x = rng.random(50_000)
    small = rng.random(256)
    a @ a
    np.sort(x)
    for _ in range(200):
        small = np.minimum(small, small[::-1]) + 1.0
    sum(i * i for i in range(10_000))
    return (time.perf_counter() - start) * 1e3


def _speed_factors(times: list[float], probes: list[tuple[float, float]]) -> list[float]:
    """``REF_CALIB_MS / median`` of the probes nearest each of ``times``."""
    probe_times = [t for t, _ in probes]
    probe_ms = [ms for _, ms in probes]
    factors = []
    for t in times:
        i = bisect.bisect(probe_times, t)
        window = probe_ms[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        factors.append(REF_CALIB_MS / statistics.median(window))
    return factors


def host_fingerprint() -> dict:
    """What a timing depends on besides the code."""
    return {
        "cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_round(name: str, seed: int, ops: int, trace_out: str | None = None) -> dict:
    """Set up one workload, run ``ops`` timed ops and return the measurements."""
    workload = WORKLOADS[name]
    probes = [(time.perf_counter(), calibrate())]
    start = time.perf_counter()
    op = workload.start(seed, workload.warmup + ops)
    for _ in range(workload.warmup):
        op()
    setup_s = time.perf_counter() - start

    tracer = Tracer() if trace_out else None
    patches = install(tracer) if tracer else []
    outputs: list = []
    starts: list[float] = []
    walls: list[float] = []
    failures: list[tuple[int, str]] = []
    next_probe = time.perf_counter()
    try:
        for i in range(ops):
            if time.perf_counter() >= next_probe:
                probes.append((time.perf_counter(), calibrate()))
                next_probe = time.perf_counter() + PROBE_EVERY_S
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    output = op()
                else:
                    with tracer.op(i):
                        output = op()
            except Exception as exc:  # an op that raises fails with the rest of its round
                traceback.print_exc(file=sys.stderr)
                failures.append((i, f"raised {exc!r}"))
                break
            walls.append(time.perf_counter() - t0)
            starts.append(t0)
            outputs.append(output)
    finally:
        uninstall(patches)
    probes.append((time.perf_counter(), calibrate()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures += checks.check_outputs(workload.kind, outputs, **workload.expected)
    failed_ops = {i for i, _ in failures}
    failed = ops if -1 in failed_ops else len(failed_ops | set(range(len(outputs), ops)))
    observed = [checks.observe(workload.kind, out) for out in outputs]
    degraded = sum(o[1] for o in observed)
    attempted_clients = sum(o[2] for o in observed)
    factors = _speed_factors(starts, probes)
    (setup_factor,) = _speed_factors([start], probes)
    result = {
        "workload": name,
        "seed": seed,
        "ops": ops,
        "setup_s": setup_s,
        "ref_setup_s": setup_s * setup_factor,
        "op_ms": [w * 1e3 for w in walls],
        "ref_op_ms": [w * f * 1e3 for w, f in zip(walls, factors)],
        "rss_mb": rss_mb,
        "pqos_sum": sum(o[0] for o in observed),
        "degraded_clients": degraded,
        "attempted_clients": attempted_clients,
        "digest": checks.digest(workload.kind, outputs),
        "failed": failed,
        "failures": [
            f"op {i}: {reason}" if i >= 0 else f"round: {reason}" for i, reason in failures[:5]
        ],
        "calib_ms": statistics.median(ms for _, ms in probes),
        "host": host_fingerprint(),
    }
    if tracer is not None:
        layer = tracer.summary(len(outputs))
        layer["dynamics.migration.zones_migrated_per_op"] = (
            sum(o[3] for o in observed) / max(len(outputs), 1)
        )
        layer["dynamics.degradation.degraded_share"] = (
            degraded / attempted_clients if attempted_clients else 0.0
        )
        result["per_layer"] = layer
        tracer.write_chrome_trace(trace_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="nominal round length")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    ops = WORKLOADS[args.workload].ops_for(args.seconds)
    result = run_round(args.workload, args.seed, ops, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
