"""Package-level tests: top-level exports, version, the documented quickstart,
and that every public function or class has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent

#: Public top-level names that no ``src/``, ``bench/`` or ``examples/`` code
#: references, each with the reason it stays.
KEEP_UNREFERENCED = {
    "us_backbone_topology": "the topology golden corpus covers it",
    "cdf_chart": "benchmarks/test_bench_figure4.py draws its artifact chart with it",
    "run_centralization_comparison": "benchmarks/test_bench_baselines.py records it",
    "dump_json": "benchmarks/ artifact writers write their JSON with it",
    "load_json": "benchmarks/ artifact writers read their JSON with it",
}


def _public_definitions() -> dict[str, str]:
    """Public top-level functions and classes of ``src/repro``, name -> module path."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = str(path.relative_to(REPO))
    return found


def _referenced_names() -> set[str]:
    """Names used in ``src/``, ``bench/`` and ``examples/`` code.

    Import statements (``__init__`` re-exports included) and ``__all__`` lists
    are not uses, and neither is a name inside its own definition.
    """
    used: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in enclosing:
            used.add(name)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for top in ("src", "bench", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            visit(ast.parse(path.read_text()), frozenset())
    return used


class TestPackage:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_subpackages_importable(self):
        for sub in (
            "core",
            "topology",
            "world",
            "dynamics",
            "measurement",
            "metrics",
            "baselines",
            "experiments",
            "io",
            "utils",
            "cli",
        ):
            importlib.import_module(f"repro.{sub}")

    def test_readme_quickstart_flow(self):
        """The flow shown in README / the package docstring works end to end."""
        from repro import CAPInstance, DVEConfig, build_scenario, solve_cap

        scenario = build_scenario(
            DVEConfig(num_servers=5, num_zones=15, num_clients=200, total_capacity_mbps=100),
            seed=42,
        )
        instance = CAPInstance.from_scenario(scenario)
        assignment = solve_cap(instance, "grez-grec", seed=0)
        assert 0.0 <= assignment.pqos(instance) <= 1.0
        assert assignment.is_capacity_feasible(instance)

    def test_metrics_exports_work(self, small_instance):
        from repro import pqos, qos_report, resource_report, resource_utilization, solve_cap

        assignment = solve_cap(small_instance, "grez-virc", seed=0)
        assert pqos(small_instance, assignment) == pytest.approx(
            qos_report(small_instance, assignment).pqos
        )
        assert resource_utilization(small_instance, assignment) == pytest.approx(
            resource_report(small_instance, assignment).utilization
        )

    def test_py_typed_marker_shipped(self):
        """PEP 561: the package carries a py.typed marker next to __init__."""
        from pathlib import Path

        assert (Path(repro.__file__).parent / "py.typed").exists()


class TestEveryPublicNameIsReached:
    def test_public_definitions_have_a_caller(self):
        used = _referenced_names()
        unreached = {
            name: module
            for name, module in _public_definitions().items()
            if name not in used and name not in KEEP_UNREFERENCED
        }
        assert not unreached, (
            "public names only tests reach; delete them or add a keep reason: "
            f"{sorted(unreached.items())}"
        )

    def test_keep_set_is_not_stale(self):
        definitions = _public_definitions()
        used = _referenced_names()
        stale = [n for n in KEEP_UNREFERENCED if n not in definitions or n in used]
        assert not stale, f"keep-set entries that are gone or now referenced: {stale}"
