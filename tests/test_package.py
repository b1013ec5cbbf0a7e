"""Package-level tests: top-level exports, version, the documented quickstart,
that every public function, class, method and property has a caller outside
the tests, that every defaulted option has a setter outside the tests, and
that every test-only oracle under ``tests/reference/`` is still imported by a
test."""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path
from typing import Dict, Optional, Tuple

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
    "Topology.shortest_path_latencies": "the shortest-path reference tests check it against SciPy",
    "Topology.is_connected": "the generator tests check connectivity with it, against SciPy",
    "ZoneAssignment.server_zone_loads": "the capacity-invariant tests check zone loads with it",
    "Assignment.is_capacity_feasible": "the README quickstart checks the assignment with it",
    "SpawnKeySeed.generate_state": "numpy's PCG64 seeds itself through it (ISeedSequence)",
}

_SMALL_WORLDS = "the solver golden corpus and tests/conftest.py's small worlds set it"

#: Defaulted parameters and dataclass init fields (``function.param``,
#: ``Class.method.param``, ``Class.field``) that no ``src/``, ``bench/`` or
#: ``examples/`` code sets, each with the reason it stays.
KEEP_UNSET_OPTIONS = {
    "BriteConfig.num_as": _SMALL_WORLDS,
    "BriteConfig.routers_per_as": _SMALL_WORLDS,
    "DVEConfig.topology": "tests/conftest.py builds the small worlds through it",
    "DVEConfig.min_server_capacity_mbps": "tests/conftest.py builds the small worlds through it",
    "HierarchicalParams.inter_as_latency_per_unit": "goes when inter-AS links are priced by span",
    "MigrationCostModel.freeze_ms_per_client": "the controller golden corpus digests freeze_ms",
    "MigrationCostModel.freeze_ms_per_zone": "the controller golden corpus digests freeze_ms",
    "SpawnKeySeed.generate_state.dtype": "numpy's ISeedSequence interface: PCG64 passes it",
    "assign_zones_random.seed": "TwoPhaseAlgorithm.solve passes the registry's seed to it",
    "cdf_chart.title": "benchmarks/test_bench_figure4.py titles its artifact chart with it",
    "recovery_report.tolerance": "benchmarks/test_bench_scenarios.py reports recoveries at 0.1",
    "run_loadgen.alloc_epochs": "the throughput benchmark's allocation gate sets it",
    "run_replications.keep_observations": "the parallel bit-identity tests read the observations",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    return any(_callee(dec, {}) == "dataclass" for dec in decorators)


def _init_field(stmt: ast.stmt) -> Optional[Tuple[str, bool]]:
    """``(name, has_default)`` of a dataclass init field, or ``None``."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        options = {k.arg: k.value for k in value.keywords}
        init = options.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return stmt.target.id, "default" in options or "default_factory" in options
    return stmt.target.id, value is not None


def _parameters(fn: ast.FunctionDef, qualname: str, bound: bool) -> Tuple[list, dict]:
    """A def's positional parameter names (past ``self``/``cls`` when ``bound``)
    and its defaulted ones, ``{name: option qualname}``."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][1 if bound else 0 :]
    defaulted = positional[len(positional) - len(args.defaults) :] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return positional, {p: f"{qualname}.{p}" for p in defaulted if not p.startswith("_")}


def _option_table() -> Dict[str, list]:
    """Callee name -> ``(positional names, {defaulted name: option qualname})``
    for every public function, method and class constructor of ``src/repro``.

    A constructor's options are its ``__init__`` parameters or its dataclass
    init fields, each named after the class that declares it.
    """
    classes = {}
    functions = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.append(node)

    def constructor(name: str) -> Tuple[list, dict]:
        node = classes[name]
        init = next(
            (i for i in node.body if isinstance(i, ast.FunctionDef) and i.name == "__init__"), None
        )
        if init is not None:
            return _parameters(init, name, bound=True)
        positional, defaulted = [], {}
        for base in node.bases:
            if getattr(base, "id", None) in classes:
                positional, defaulted = constructor(base.id)
                positional, defaulted = list(positional), dict(defaulted)
        if _is_dataclass(node):
            for stmt in node.body:
                found = _init_field(stmt)
                if found is None:
                    continue
                positional.append(found[0])
                if found[1] and not found[0].startswith("_"):
                    defaulted[found[0]] = f"{name}.{found[0]}"
        return positional, defaulted

    table: Dict[str, list] = {}
    for fn in functions:
        table.setdefault(fn.name, []).append(_parameters(fn, fn.name, bound=False))
    for name, node in classes.items():
        if name.startswith("_"):
            continue
        table.setdefault(name, []).append(constructor(name))
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                table.setdefault(item.name, []).append(
                    _parameters(item, f"{name}.{item.name}", bound=not static)
                )
    return table


@functools.lru_cache(maxsize=None)
def _public_options() -> frozenset[str]:
    """Every defaulted option of a public callable, e.g. ``place_servers.method``."""
    return frozenset(
        q for entries in _option_table().values() for _pos, opts in entries for q in opts.values()
    )


def _callee(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    if isinstance(func, ast.Name):
        return aliases.get(func.id, func.id)
    return func.attr if isinstance(func, ast.Attribute) else None


def _constant_keys(node: ast.AST) -> set[str]:
    """The string keys a dict display or a ``dict(...)``/``.update(...)`` call names."""
    if isinstance(node, ast.Dict):
        keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        return {k for k in keys if isinstance(k, str)}
    if isinstance(node, ast.Call):
        return {k.arg for k in node.keywords if k.arg}.union(*map(_constant_keys, node.args))
    return set()


def _local_dicts(fn: ast.FunctionDef) -> Dict[str, Tuple[set, set]]:
    """Dict name -> ``(constant keys, names merged in)`` for the dicts a def
    builds by display, ``dict(...)``, ``d["key"] = ...`` or ``d.update(...)``."""
    dicts: Dict[str, Tuple[set, set]] = {}
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    keys, merged = dicts.setdefault(target.id, (set(), set()))
                    keys |= _constant_keys(node.value)
                    if isinstance(node.value, ast.Name):
                        merged.add(node.value.id)
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and isinstance(target.slice, ast.Constant)
                ):
                    dicts.setdefault(target.value.id, (set(), set()))[0].add(target.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "update"
            and isinstance(node.func.value, ast.Name)
        ):
            keys, merged = dicts.setdefault(node.func.value.id, (set(), set()))
            keys |= _constant_keys(node)
            merged |= {a.id for a in node.args if isinstance(a, ast.Name)}
    return dicts


def _option_calls() -> Tuple[list, Dict[str, list]]:
    """``(callee name, positional count, keywords)`` for every call in ``src/``,
    ``bench/`` and ``examples/`` code, plus the calls the program makes by
    forwarding, and ``{def name: [(own parameters, callee)]}`` for each def
    that passes its ``**kwargs`` on:

    * ``dataclasses.replace(obj, key=...)`` sets ``key`` on every class
      (callee ``"replace"``); ``partial(fn, ...)`` calls ``fn``;
    * ``register_solver(name, fn)``: the solver registry calls ``fn(instance, seed)``;
    * ``**kwargs`` that a def passes on sets the callee's options by the
      def's own callers' extra keywords, and a locally built dict by its
      constant keys; a dict of unknown origin sets every constant key the
      code ever puts in a dict (a false keep is cheaper than a false deletion);
    * the scenario DSL's ``_EVENT_SPECS`` table sets the event fields it names.
    """
    trees = [
        ast.parse(path.read_text())
        for top in ("src", "bench", "examples")
        for path in sorted((REPO / top).rglob("*.py"))
    ]
    every_key: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) or (
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
            ):
                every_key |= _constant_keys(node)
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                    every_key.add(node.slice.value)

    calls = []
    forwards: Dict[str, list] = {}

    def visit(node: ast.AST, aliases: Dict[str, str], fn: Optional[ast.FunctionDef]) -> None:
        if isinstance(node, ast.ClassDef):
            aliases = {**aliases, "cls": node.name}
        if isinstance(node, ast.FunctionDef):
            fn = node
        for child in ast.iter_child_nodes(node):
            visit(child, aliases, fn)
        if not isinstance(node, ast.Call):
            return
        callee = _callee(node.func, aliases)
        keywords = {k.arg for k in node.keywords if k.arg}
        positional = len(node.args)
        if any(isinstance(a, ast.Starred) for a in node.args):
            positional = 1 << 30
        if callee in ("replace", "partial") and node.args:
            if callee == "partial":
                callee, positional = _callee(node.args[0], aliases), positional - 1
            else:
                positional = 0
        elif callee == "register_solver" and len(node.args) >= 2:
            calls.append((_callee(node.args[1], aliases), 2, set()))
        calls.append((callee, positional, keywords))
        for kw in node.keywords:
            if kw.arg is not None or not isinstance(kw.value, ast.Name) or fn is None:
                continue
            keys, merged = _local_dicts(fn).get(kw.value.id, (set(), set()))
            vararg = fn.args.kwarg.arg if fn.args.kwarg else None
            if vararg in {kw.value.id} | merged:
                own = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
                forwards.setdefault(fn.name, []).append((own, callee))
            elif not keys:
                keys = every_key
            calls.append((callee, 0, set(keys)))

    for tree in trees:
        aliases = {
            alias.asname: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.asname
        }
        visit(tree, aliases, None)

    scenarios = ast.parse((REPO / "src/repro/dynamics/scenarios.py").read_text())
    event_specs = next(
        n.value
        for n in scenarios.body
        if isinstance(n, ast.AnnAssign) and getattr(n.target, "id", None) == "_EVENT_SPECS"
    )
    for entry in event_specs.values:
        event, fields = entry.elts
        calls.append((event.id, 0, {spec.elts[0].value for spec in fields.values}))
    return calls, forwards


@functools.lru_cache(maxsize=None)
def _set_options() -> frozenset[str]:
    """The options some ``src/``, ``bench/`` or ``examples/`` call sets.

    Callees resolve by bare name, whatever the receiver, like the method scan.
    """
    table = _option_table()
    pending, forwards = _option_calls()
    constructors = [e for name, entries in table.items() if name[:1].isupper() for e in entries]
    found: set[str] = set()
    seen = set()
    while pending:
        callee, positional, keywords = pending.pop()
        key = (callee, positional, frozenset(keywords))
        if callee is None or key in seen:
            continue
        seen.add(key)
        for own, target in forwards.get(callee, ()):
            if keywords - own:
                pending.append((target, 0, keywords - own))
        entries = constructors if callee == "replace" else table.get(callee, ())
        for names, options in entries:
            set_here = keywords | set(names[:positional])
            found.update(q for p, q in options.items() if p in set_here)
    return frozenset(found)


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


class TestEveryOptionIsSet:
    def test_public_options_have_a_setter(self):
        unset = _public_options() - _set_options() - set(KEEP_UNSET_OPTIONS)
        assert not unset, (
            "defaulted options only tests set; make them constants or add a keep reason: "
            f"{sorted(unset)}"
        )

    def test_keep_set_is_not_stale(self):
        options = _public_options()
        set_options = _set_options()
        stale = [q for q in KEEP_UNSET_OPTIONS if q not in options or q in set_options]
        assert not stale, f"option keep-set entries that are gone or now set: {stale}"

    def test_every_keep_has_a_reason(self):
        assert all(isinstance(r, str) and r.strip() for r in KEEP_UNSET_OPTIONS.values())

    def test_forwarding_counts_as_setting(self):
        """The forwarded settings count: keywords bound by ``functools.partial``,
        the registry's seed into solvers, the scenario DSL's keys into event
        fields, and ``**kwargs`` passed on to ``dataclasses.replace``."""
        set_options = _set_options()
        assert {
            "reassign.seed",
            "solve_load_balance.seed",
            "OutageEvent.radius",
            "MaintenanceEvent.group_start",
            "DVEConfig.delay_backend",
        } <= set_options


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
