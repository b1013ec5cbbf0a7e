"""Package-level tests: top-level exports, version, the documented quickstart,
that every public function, class, method and property has a caller outside
the tests, and that every test-only oracle under ``tests/reference/`` is still
imported by a test."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro
from bench.trace import SPAN_TARGETS

REPO = Path(__file__).resolve().parent.parent

#: Public top-level names that no ``src/``, ``bench/`` or ``examples/`` code
#: references, each with the reason it stays.
KEEP_UNREFERENCED = {
    "cdf_chart": "benchmarks/test_bench_figure4.py draws its artifact chart with it",
    "dump_json": "benchmarks/ artifact writers write their JSON with it",
    "load_json": "benchmarks/ artifact writers read their JSON with it",
}

#: Public methods and properties (``Class.name``) that no ``src/``, ``bench/``
#: or ``examples/`` code references, each with the reason it stays.
KEEP_UNREACHED_METHODS = {
    "ClientPopulation.with_moved": "the churn snapshot oracle moves the movers with it",
    "ClientPopulation.with_joined": "the churn snapshot oracle appends the joiners with it",
    "ClientPopulation.subset": "the churn snapshot oracle keeps the survivors with it",
    "Topology.adjacency_matrix": "the shortest-path reference tests hand it to SciPy",
    "ZoneAssignment.server_zone_loads": "the capacity-invariant tests check zone loads with it",
    "Assignment.is_capacity_feasible": "the README quickstart checks the assignment with it",
}


def _public_definitions() -> dict[str, str]:
    """Public top-level functions and classes of ``src/repro``, name -> module path."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = str(path.relative_to(REPO))
    return found


def _public_methods() -> dict[str, str]:
    """Public methods and properties of public ``src/repro`` classes,
    ``Class.name`` -> module path."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{node.name}.{item.name}"] = str(path.relative_to(REPO))
    return found


def _pinned_methods() -> set[str]:
    """``Class.name`` span targets that ``bench/trace.py`` wraps by name."""
    return {attr for _module, attr in SPAN_TARGETS if "." in attr}


def _unreached_methods(used: set[str]) -> set[str]:
    """Public methods whose name ``used`` lacks and that no trace pin names.

    A method counts as reached when its bare name is used anywhere, whatever
    the receiver: a false keep (``subset`` on another class) is cheaper than
    a false deletion.
    """
    pinned = _pinned_methods()
    return {
        qualname
        for qualname in _public_methods()
        if qualname.split(".", 1)[1] not in used and qualname not in pinned
    }


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


def _imported_oracles() -> set[str]:
    """``tests/reference`` module names imported by ``tests/`` or ``benchmarks/`` code
    outside ``tests/reference`` itself (an oracle importing another is no use)."""
    imported: set[str] = set()
    for top in ("tests", "benchmarks"):
        for path in sorted((REPO / top).rglob("*.py")):
            if (REPO / "tests" / "reference") in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                imported.update(
                    m.split(".")[2] for m in modules if m.startswith("tests.reference.")
                )
    return imported


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


class TestEveryPublicMethodIsReached:
    def test_public_methods_have_a_caller(self):
        unreached = _unreached_methods(_referenced_names()) - set(KEEP_UNREACHED_METHODS)
        assert not unreached, (
            "public methods only tests reach; delete them or add a keep reason: "
            f"{sorted(unreached)}"
        )

    def test_keep_set_is_not_stale(self):
        methods = _public_methods()
        unreached = _unreached_methods(_referenced_names())
        stale = [q for q in KEEP_UNREACHED_METHODS if q not in methods or q not in unreached]
        assert not stale, f"method keep-set entries that are gone or now referenced: {stale}"

    def test_trace_pins_count_as_uses(self):
        """A ``bench/trace.py`` pin names a real method, and reaches it with no other use."""
        pinned = _pinned_methods()
        assert pinned and pinned <= set(_public_methods()), pinned - set(_public_methods())
        assert not pinned & _unreached_methods(used=set())


class TestEveryOracleIsImported:
    def test_reference_oracles_have_a_test(self):
        """An oracle no test imports specifies nothing; delete it with its code."""
        oracles = {
            path.stem
            for path in (REPO / "tests" / "reference").glob("*.py")
            if path.stem != "__init__"
        }
        orphans = sorted(oracles - _imported_oracles())
        assert not orphans, f"tests/reference oracles no test module imports: {orphans}"
