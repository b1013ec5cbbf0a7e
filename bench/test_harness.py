"""Self-test of the benchmark harness (``python -m pytest bench -q``, well under 60 s).

Not part of tier-1: ``pyproject.toml``'s ``testpaths`` do not include
``bench/``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench import compare, harness  # noqa: E402
from bench.child import run_round  # noqa: E402
from bench.trace import Tracer, install, uninstall  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _repro_bindings() -> dict:
    """Every module attribute and class attribute of the loaded repro modules."""
    snapshot = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "repro" or key.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            snapshot[(key, attr)] = value
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    snapshot[(key, attr, member)] = raw
    return snapshot


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_tracing_keeps_records(name, tmp_path):
    plain = run_round(name, seed=3, ops=2)
    assert plain["failed"] == 0, plain["failures"]
    assert len(plain["op_ms"]) == 2 and plain["setup_s"] > 0

    before = _repro_bindings()
    trace_file = tmp_path / "trace.json"
    traced = run_round(name, seed=3, ops=2, trace_out=str(trace_file))
    after = _repro_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())

    assert traced["failed"] == 0, traced["failures"]
    assert traced["digest"] == plain["digest"]
    layer = traced["per_layer"]
    assert layer["layer.untraced.self_share"] <= 0.15
    assert set(layer) | {"trace.overhead"} == {m["name"] for m in SPEC["per_layer"]}
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert sum(e["name"] == "bench.op" for e in events) == 2


def test_install_patches_rebinds_and_uninstall_restores():
    import repro.core.grez as grez
    import repro.core.regret as regret

    before = _repro_bindings()
    patches = install(Tracer())
    try:
        assert grez.max_regret_assign is regret.max_regret_assign
        assert grez.max_regret_assign.__wrapped__ is before[("repro.core.regret",
                                                             "max_regret_assign")]
    finally:
        uninstall(patches)
    after = _repro_bindings()
    assert all(after[k] is v for k, v in before.items())


def _synthetic_results(worse_by: float) -> dict:
    """Results whose every metric is ``worse_by`` worse (negative: better)."""
    rounds = [100.0, 100.05, 99.95, 100.02, 99.98]
    workload = {
        "seeds": [0, 1, 2, 3, 4],
        "ops_per_round": 10,
        "digests": ["d"] * 5,
        "diagnostics": {"error_rate": 0.0},
        "metrics": {},
    }
    for m in SPEC["end_to_end"]:
        factor = 1 + worse_by if m["better"] == "lower" else 1 - worse_by
        workload["metrics"][m["name"]] = {"rounds": [v * factor for v in rounds]}
    host = {"cpus": 2, "python": "3", "numpy": "2", "platform": "p", "machine": "m",
            "calib_ms": 10.0}
    return {"host": host, "workloads": {"w": workload}}


def _verdicts(base: dict, new: dict) -> dict:
    rows, _warnings = compare.compare(base, new, SPEC)
    return {r[1]: r[-1] for r in rows}


def test_compare_flags_a_20_percent_regression_and_passes_identical_inputs():
    base = _synthetic_results(0.0)
    verdicts = _verdicts(base, _synthetic_results(0.20))
    assert all(verdicts[m["name"]] == "regressed" for m in SPEC["end_to_end"] if m["bound"] < 0.2)
    assert {v for k, v in _verdicts(base, _synthetic_results(0.30)).items()
            if k != "error_rate"} == {"regressed"}
    assert {v for k, v in _verdicts(base, _synthetic_results(-0.30)).items()
            if k != "error_rate"} == {"improved"}
    rows, warnings = compare.compare(base, copy.deepcopy(base), SPEC)
    assert {r[-1] for r in rows} == {"unchanged"} and not warnings


def test_compare_reports_changed_digests_and_host_drift():
    base = _synthetic_results(0.0)
    new = copy.deepcopy(base)
    new["workloads"]["w"]["digests"][2] = "other"
    new["host"]["calib_ms"] = 12.0
    _rows, warnings = compare.compare(base, new, SPEC)
    assert any("DIGESTS CHANGED in rounds [2]" in w for w in warnings)
    assert any(w.startswith("host drift") for w in warnings)


def test_spec_names_follow_the_rules():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [entry["name"] for group in groups for entry in group]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_run_writes_only_under_out(tmp_path):
    def status():
        out = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        return out.stdout if out.returncode == 0 else None

    before = status()
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "fed-maintenance",
         "--seconds", "0.5", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert (tmp_path / "results.json").is_file()
    assert status() == before


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "steady-churn", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
