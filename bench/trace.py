"""Span tracer for the benchmark's traced pass.

The tracer wraps the public entry points of each ``repro`` layer from the
outside: nothing in ``src/`` knows it exists.  :func:`install` replaces every
binding of each target in the loaded ``repro.*`` modules (so ``from ...
import`` rebinds such as ``repro.core.grez.max_regret_assign`` are caught too)
and wraps methods and properties on their classes; :func:`uninstall` puts
every original object back.  Spans stay in memory until the round ends and
are then reduced to per-span self time and written as a Chrome trace-event
file that Perfetto opens.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

__all__ = [
    "SPAN_TARGETS",
    "LAYERS",
    "ROOT_SPAN",
    "Tracer",
    "install",
    "uninstall",
    "span_name",
]

#: Harness root span: one per timed op.
ROOT_SPAN = "bench.op"

#: Layers whose self time is reported (``layer.<name>.self_share``).
LAYERS = ("topology", "world", "core", "dynamics", "experiments")

#: ``(module, attribute)`` of every traced entry point; a dotted attribute is a
#: method, classmethod or property wrapped on its class.
SPAN_TARGETS = (
    ("repro.topology.brite", "generate_topology"),
    ("repro.topology.delays", "DelayModel.rtt"),
    ("repro.topology.placement", "place_servers"),
    ("repro.world.scenario", "build_scenario"),
    ("repro.world.distributions", "sample_client_nodes"),
    ("repro.world.distributions", "sample_client_zones"),
    ("repro.world.scenario", "DVEScenario.apply_churn_delta"),
    ("repro.world.scenario", "DVEScenario.with_server_capacities"),
    ("repro.core.registry", "solve"),
    ("repro.core.grez", "assign_zones_greedy"),
    ("repro.core.grec", "assign_contacts_greedy"),
    ("repro.core.regret", "max_regret_assign"),
    ("repro.core.regret", "max_regret_assign_candidates"),
    ("repro.core.costs", "initial_cost_matrix"),
    ("repro.core.costs", "refined_cost_rows"),
    ("repro.core.costs", "refined_cost_candidates"),
    ("repro.core.local_search", "warm_start_refine"),
    ("repro.core.problem", "CAPInstance.from_scenario"),
    ("repro.core.problem", "CAPInstance.apply_delta"),
    ("repro.core.arbitration", "CapacityArbiter.arbitrate"),
    ("repro.dynamics.engine", "EpochSession.run_epoch"),
    ("repro.dynamics.churn", "generate_churn"),
    ("repro.dynamics.events", "apply_churn"),
    ("repro.dynamics.policies", "carry_over_assignment"),
    ("repro.dynamics.policies", "reassign"),
    ("repro.dynamics.policies", "incremental_reassign"),
    ("repro.dynamics.policies", "remap_assignment_servers"),
    ("repro.dynamics.measurement", "carried_qos_count"),
    ("repro.dynamics.measurement", "ensure_measures"),
    ("repro.dynamics.migration", "charge_zone_moves"),
    ("repro.dynamics.scenarios", "ScenarioRuntime.plan_epoch"),
    ("repro.dynamics.scenarios", "ScenarioRuntime.prepare_batch"),
    ("repro.experiments.figure4", "run_figure4"),
    ("repro.experiments.runner", "evaluate_algorithms"),
)


def _ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was counted."""
    return num / den if den else 0.0


def span_name(module: str, attr: str) -> str:
    """``repro.core.regret`` + ``max_regret_assign`` -> ``core.regret.max_regret_assign``."""
    return f"{module.removeprefix('repro.')}.{attr}"


class Tracer:
    """In-memory span recorder for one single-threaded round.

    A span is ``(name, start_ns, dur_ns, self_ns, span_id, parent_id, op_id)``;
    self time is the duration minus the time its direct children cover.
    ``counters`` accumulates decision counts read from return values.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.arenas: dict[int, object] = {}
        self.op_id = -1
        self._stack: list[list] = []  # [span_id, start_ns, child_ns]
        self._next_id = 0

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        dur = time.perf_counter_ns() - frame[1]
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append(
            (name, frame[1], dur, dur - frame[2], frame[0], -1 if parent is None else parent[0],
             self.op_id)
        )

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The harness root span around one op."""
        self.op_id = op_id
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(ROOT_SPAN, frame)

    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span; ``functools.wraps`` keeps its signature."""
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    def summary(self, num_ops: int) -> dict:
        """Per-layer metrics of the recorded round, normalised per op."""
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        root_ns = 0
        for name, _start, dur, own, *_ in self.spans:
            calls[name] += 1
            self_ns[name] += own
            if name == ROOT_SPAN:
                root_ns += dur
        ops = max(num_ops, 1)
        metrics: dict[str, float] = {}
        for module, attr in SPAN_TARGETS:
            name = span_name(module, attr)
            metrics[f"{name}.calls"] = calls[name] / ops
            metrics[f"{name}.self_ms"] = self_ns[name] / 1e6 / ops
        for layer in LAYERS:
            layer_ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == layer)
            metrics[f"layer.{layer}.self_share"] = _ratio(layer_ns, root_ns)
        metrics["layer.untraced.self_share"] = _ratio(self_ns[ROOT_SPAN], root_ns)

        c = self.counters
        stats = [arena.stats() for arena in self.arenas.values()]
        metrics["utils.arena.reuse_ratio"] = _ratio(
            sum(s["reuses"] for s in stats), sum(s["acquires"] for s in stats)
        )
        metrics["core.regret.fallback_rate"] = _ratio(c["regret.exceeded"], c["regret.calls"])
        metrics["core.local_search.moves_per_call"] = _ratio(c["refine.moves"], c["refine.calls"])
        metrics["core.arbitration.reslice_rate"] = _ratio(
            c["arbitrate.proposals"], c["arbitrate.calls"]
        )
        metrics["dynamics.degradation.clients_shed_per_op"] = c["shed"] / ops
        return metrics

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        if not self.spans:
            return
        t0 = min(s[1] for s in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": dur / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"op": op_id, "span": span_id, "parent": parent_id},
            }
            for name, start, dur, _own, span_id, parent_id, op_id in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ---------------------------------------------------------------------- #
# Counters read from the traced calls' return values and receivers.
def _observe_regret(tracer: Tracer, _args, result) -> None:
    tracer.counters["regret.calls"] += 1
    tracer.counters["regret.exceeded"] += bool(result.capacity_exceeded)


def _observe_refine(tracer: Tracer, _args, result) -> None:
    tracer.counters["refine.calls"] += 1
    tracer.counters["refine.moves"] += result.iterations


def _observe_arbitrate(tracer: Tracer, _args, result) -> None:
    tracer.counters["arbitrate.calls"] += 1
    tracer.counters["arbitrate.proposals"] += result is not None


def _observe_prepare_batch(tracer: Tracer, _args, result) -> None:
    tracer.counters["shed"] += result[1].num_shed


def _observe_run_epoch(tracer: Tracer, args, _result) -> None:
    arena = args[0].state.arena
    if arena is not None:
        tracer.arenas[id(arena)] = arena


_OBSERVERS = {
    "core.regret.max_regret_assign": _observe_regret,
    "core.regret.max_regret_assign_candidates": _observe_regret,
    "core.local_search.warm_start_refine": _observe_refine,
    "core.arbitration.CapacityArbiter.arbitrate": _observe_arbitrate,
    "dynamics.scenarios.ScenarioRuntime.prepare_batch": _observe_prepare_batch,
    "dynamics.engine.EpochSession.run_epoch": _observe_run_epoch,
}


# ---------------------------------------------------------------------- #
def _wrap_descriptor(tracer: Tracer, name: str, raw):
    if isinstance(raw, property):
        return property(tracer.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(tracer.wrap(name, raw.__func__))
    return tracer.wrap(name, raw)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every :data:`SPAN_TARGETS` entry; return the patches to undo.

    Each patch is ``(owner, attribute, original)``, where the owner is a
    module or a class.
    """
    patches: list[tuple] = []
    try:
        for module_name, attr in SPAN_TARGETS:
            name = span_name(module_name, attr)
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                raw = vars(cls)[member]
                setattr(cls, member, _wrap_descriptor(tracer, name, raw))
                patches.append((cls, member, raw))
                continue
            original = getattr(module, member)
            wrapper = tracer.wrap(name, original)
            loaded = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "repro" or key.startswith("repro."))]
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patches.append((mod, key, original))
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Restore every binding :func:`install` replaced."""
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)
