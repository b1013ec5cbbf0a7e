"""Incident scenario library: named, seeded, composable disturbance timelines.

The paper's churn model is stationary — the same expected joins / leaves /
moves every epoch.  Production worlds fail in structured ways: a regional
outage downs every server near a zone for a few epochs, a flash crowd dumps a
burst of joins onto one zone, demand breathes diurnally, maintenance calendars
gate capacity on a schedule, and access links degrade.  This module turns
those incidents into data:

* :class:`ScenarioEvent` subclasses — one frozen dataclass per disturbance
  kind (:class:`OutageEvent`, :class:`FlashCrowdEvent`, :class:`DiurnalEvent`,
  :class:`MaintenanceEvent`, :class:`LinkDegradationEvent`), each with a
  ``start`` epoch and optional ``duration``;
* :class:`ScenarioTimeline` — a canonically ordered composition of events
  (sorting at construction makes composing two scenarios order-deterministic);
* a spec-string DSL (``"outage:zone=0,radius=4,start=3,duration=3"``) parsed
  by :func:`parse_scenario` / :func:`build_timeline`, plus the named
  :data:`SCENARIO_LIBRARY` the experiment registry and CI chaos smoke iterate;
* :class:`ScenarioRuntime` — the per-run engine hook that converts the
  timeline into per-epoch churn-spec modulation, extra join batches, capacity
  overlays (identity :class:`~repro.dynamics.infrastructure.ServerChurnResult`
  deltas) and delay overlays, and routes every batch through the admission
  control of :mod:`repro.dynamics.degradation` so an infeasible epoch sheds
  instead of raising.

Design note: a regional outage is modelled as **capacity gating**, not server
index churn — downed servers keep their index but have their capacity floored
to :data:`MIN_GATED_CAPACITY_BPS`, so assignments carry over deterministically,
restoration is bit-exact (the original capacity vector returns), and the
sparse backend's per-zone candidate sets never lose coverage mid-incident.
The solvers already avoid ~zero-capacity servers, so gated regions drain
naturally through the repair policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.problem import CAPInstance
from repro.dynamics.churn import ChurnSpec
from repro.dynamics.degradation import (
    AdmissionPolicy,
    AdmissionStats,
    DegradedPool,
    admission_control,
)
from repro.dynamics.events import ChurnBatch
from repro.dynamics.infrastructure import ServerChurnResult
from repro.topology.delay_backends import zone_anchor_nodes
from repro.utils.rng import SeedLike, reserve_seeds
from repro.world.bandwidth import STREAM_BPS
from repro.world.clients import ClientPopulation
from repro.world.distributions import sample_client_nodes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.world.scenario import DVEScenario

__all__ = [
    "MIN_GATED_CAPACITY_BPS",
    "ScenarioEvent",
    "OutageEvent",
    "FlashCrowdEvent",
    "DiurnalEvent",
    "MaintenanceEvent",
    "LinkDegradationEvent",
    "ScenarioTimeline",
    "parse_scenario",
    "build_timeline",
    "check_event_zones",
    "SCENARIO_LIBRARY",
    "EpochPlan",
    "ScenarioRuntime",
]

#: Capacity floor (bits/s) for gated servers.  :class:`~repro.core.problem.CAPInstance`
#: requires strictly positive capacities, so a "downed" server is gated to
#: this negligible floor instead of zero — far below any single client's
#: demand, so the solvers treat it as unusable.
MIN_GATED_CAPACITY_BPS = 1.0


# --------------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScenarioEvent:
    """Base disturbance: active from ``start`` for ``duration`` epochs.

    ``duration=None`` means "until the end of the run".
    """

    kind: ClassVar[str] = "abstract"

    start: int = 0
    duration: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1 (or None for open-ended)")

    def active(self, epoch: int) -> bool:
        """True when this event disturbs ``epoch``."""
        if epoch < self.start:
            return False
        return self.duration is None or epoch < self.start + self.duration


@dataclass(frozen=True)
class OutageEvent(ScenarioEvent):
    """Regional outage: down the ``radius`` servers nearest to a zone's anchor.

    Affected servers are capacity-gated to :data:`MIN_GATED_CAPACITY_BPS` for
    the event's duration, then restored bit-exactly.  At least one server
    always stays ungated (a fleet with no usable server is not a state the
    solvers can express).
    """

    kind: ClassVar[str] = "outage"

    zone: int = 0
    radius: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zone < 0:
            raise ValueError("zone must be >= 0")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")


@dataclass(frozen=True)
class FlashCrowdEvent(ScenarioEvent):
    """Flash crowd: burst joins onto one zone with exponential decay.

    ``round(clients * exp(-(epoch - start) / tau))`` extra clients join the
    target zone each active epoch (their physical nodes follow the scenario's
    configured client distribution).
    """

    kind: ClassVar[str] = "flashcrowd"

    zone: int = 0
    clients: int = 100
    tau: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zone < 0:
            raise ValueError("zone must be >= 0")
        if self.clients < 0:
            raise ValueError("clients must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class DiurnalEvent(ScenarioEvent):
    """Diurnal wave: sinusoidal modulation of the join / leave rates.

    At phase ``t = epoch - start`` the join count is scaled by
    ``1 + amplitude * sin(2 pi t / period)`` and the leave count by the
    mirror ``2 -`` that factor (clamped at 0), so the population swells on
    the crest and drains in the trough.
    """

    kind: ClassVar[str] = "diurnal"

    amplitude: float = 0.5
    period: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.amplitude:
            raise ValueError("amplitude must be >= 0")
        if self.period < 1:
            raise ValueError("period must be >= 1")


@dataclass(frozen=True)
class MaintenanceEvent(ScenarioEvent):
    """Maintenance calendar: periodically gate a server group's capacity.

    Every ``period`` epochs (relative to ``start``) a contiguous group of
    ``ceil(fraction * num_servers)`` servers, beginning at ``group_start``
    (mod fleet size), has its capacity scaled by ``factor`` for ``window``
    epochs — the shift-calendar downtime-window pattern.
    """

    kind: ClassVar[str] = "maintenance"

    period: int = 6
    window: int = 1
    fraction: float = 0.25
    factor: float = 0.0
    group_start: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 1 <= self.window <= self.period:
            raise ValueError("window must lie in [1, period]")
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must lie in (0, 1]")
        if self.factor < 0:
            raise ValueError("factor must be >= 0")
        if self.group_start < 0:
            raise ValueError("group_start must be >= 0")

    def in_window(self, epoch: int) -> bool:
        """True when ``epoch`` falls in a gated maintenance window."""
        return self.active(epoch) and (epoch - self.start) % self.period < self.window


@dataclass(frozen=True)
class LinkDegradationEvent(ScenarioEvent):
    """Link degradation: scale access delays of nodes near a zone's anchor.

    The ``radius`` topology nodes nearest the zone anchor have their
    client→server delay rows multiplied by ``factor`` for the event's
    duration — applied as a measurement-time overlay through the delay
    backends' node→server table, never by mutating the delay model.
    """

    kind: ClassVar[str] = "linkdegrade"

    zone: int = 0
    radius: int = 10
    factor: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.zone < 0:
            raise ValueError("zone must be >= 0")
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


def _event_sort_key(event: ScenarioEvent) -> tuple:
    duration = -1 if event.duration is None else int(event.duration)
    return (event.kind, event.start, duration, repr(event))


@dataclass(frozen=True)
class ScenarioTimeline:
    """A composition of scenario events, canonically ordered.

    Events are sorted at construction (by kind, then start, duration and
    parameters), so ``diurnal + outage`` and ``outage + diurnal`` build the
    *same* timeline — composition is order-deterministic by construction.
    """

    events: Tuple[ScenarioEvent, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, ScenarioEvent):
                raise TypeError(f"expected ScenarioEvent, got {type(event)!r}")
        events = tuple(sorted(self.events, key=_event_sort_key))
        object.__setattr__(self, "events", events)

    @property
    def is_empty(self) -> bool:
        """True when the timeline disturbs nothing."""
        return not self.events

    def __iter__(self) -> Iterator[ScenarioEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


# --------------------------------------------------------------------------- #
# Spec-string DSL
# --------------------------------------------------------------------------- #
def _duration(value: str) -> int:
    return int(value)


#: kind -> (event class, {spec key -> (field name, converter)}).
_EVENT_SPECS: dict = {
    "outage": (
        OutageEvent,
        {
            "zone": ("zone", int),
            "radius": ("radius", int),
            "start": ("start", int),
            "duration": ("duration", _duration),
        },
    ),
    "flashcrowd": (
        FlashCrowdEvent,
        {
            "zone": ("zone", int),
            "clients": ("clients", int),
            "tau": ("tau", float),
            "start": ("start", int),
            "duration": ("duration", _duration),
        },
    ),
    "diurnal": (
        DiurnalEvent,
        {
            "amplitude": ("amplitude", float),
            "period": ("period", int),
            "start": ("start", int),
            "duration": ("duration", _duration),
        },
    ),
    "maintenance": (
        MaintenanceEvent,
        {
            "period": ("period", int),
            "window": ("window", int),
            "frac": ("fraction", float),
            "fraction": ("fraction", float),
            "factor": ("factor", float),
            "group": ("group_start", int),
            "group_start": ("group_start", int),
            "start": ("start", int),
            "duration": ("duration", _duration),
        },
    ),
    "linkdegrade": (
        LinkDegradationEvent,
        {
            "zone": ("zone", int),
            "radius": ("radius", int),
            "factor": ("factor", float),
            "start": ("start", int),
            "duration": ("duration", _duration),
        },
    ),
}


def parse_scenario(spec: str) -> ScenarioEvent:
    """Parse one ``kind:key=value,...`` spec string into a scenario event.

    The kind alone (``"diurnal"``) uses that event's defaults.  Accepted
    kinds: ``outage``, ``flashcrowd``, ``diurnal``, ``maintenance``,
    ``linkdegrade``.
    """
    spec = spec.strip()
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _EVENT_SPECS:
        raise ValueError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(_EVENT_SPECS)}"
        )
    cls, fields = _EVENT_SPECS[kind]
    kwargs = {}
    if params.strip():
        for item in params.split(","):
            key, sep, value = item.partition("=")
            key = key.strip().lower()
            if not sep or not value.strip():
                raise ValueError(f"malformed parameter {item!r} in scenario spec {spec!r}")
            if key not in fields:
                raise ValueError(
                    f"unknown parameter {key!r} for scenario kind {kind!r}; "
                    f"expected one of {sorted(fields)}"
                )
            name, convert = fields[key]
            kwargs[name] = convert(value.strip())
    return cls(**kwargs)


#: Named scenarios the ``scenarios`` experiment and the CI chaos smoke run.
#: Each name expands to one or more DSL spec strings; the last entry composes
#: two disturbances to exercise order-deterministic composition end to end.
SCENARIO_LIBRARY: dict = {
    "regional-outage": ("outage:zone=0,radius=4,start=3,duration=3",),
    "flash-crowd": ("flashcrowd:zone=2,clients=400,start=2,tau=2,duration=6",),
    "diurnal": ("diurnal:amplitude=0.8,period=8",),
    "maintenance": ("maintenance:period=6,window=2,frac=0.25,start=1",),
    "link-degradation": ("linkdegrade:zone=1,radius=50,factor=4,start=2,duration=3",),
    "outage-flash-crowd": (
        "outage:zone=0,radius=4,start=3,duration=3",
        "flashcrowd:zone=0,clients=300,start=3,tau=2,duration=6",
    ),
}


def build_timeline(
    specs: Union[str, ScenarioEvent, Iterable[Union[str, ScenarioEvent]]],
) -> ScenarioTimeline:
    """Build a timeline from spec strings, library names and/or events.

    Each string is either a name from :data:`SCENARIO_LIBRARY` (expanded to
    its events) or a raw ``kind:...`` DSL spec.  The resulting timeline is
    canonically ordered regardless of the input order.
    """
    if isinstance(specs, (str, ScenarioEvent)):
        specs = [specs]
    events: List[ScenarioEvent] = []
    for spec in specs:
        if isinstance(spec, ScenarioEvent):
            events.append(spec)
        elif spec in SCENARIO_LIBRARY:
            events.extend(parse_scenario(s) for s in SCENARIO_LIBRARY[spec])
        else:
            events.append(parse_scenario(spec))
    return ScenarioTimeline(events=tuple(events))


def check_event_zones(timeline: ScenarioTimeline, num_zones: int) -> None:
    """Raise ``ValueError`` if an event targets a zone outside ``[0, num_zones)``.

    The parser only knows zones are non-negative; the world's zone count is
    known once the config is, so the CLI calls this before any work starts
    and :class:`ScenarioRuntime` calls it on every scenario it is given.
    """
    for event in timeline.events:
        zone = getattr(event, "zone", None)
        if zone is not None and zone >= num_zones:
            raise ValueError(
                f"{event.kind} event targets zone {zone}, scenario has {num_zones} zones"
            )


# --------------------------------------------------------------------------- #
# Runtime
# --------------------------------------------------------------------------- #
@dataclass
class EpochPlan:
    """What a timeline does to one epoch, resolved by :class:`ScenarioRuntime`."""

    epoch: int
    churn_spec: ChurnSpec
    extra_join_nodes: np.ndarray
    extra_join_zones: np.ndarray
    server_churn: Optional[ServerChurnResult]
    node_delay_factors: Optional[np.ndarray]
    total_capacity: float
    shed_seed: SeedLike = field(repr=False, default=None)


class ScenarioRuntime:
    """Per-run engine hook that executes a :class:`ScenarioTimeline`.

    Resolves every event's static geometry once (which servers a regional
    outage downs, which nodes a link degradation touches, which server group a
    maintenance calendar gates) against the *initial* scenario, then answers
    :meth:`plan_epoch` / :meth:`prepare_batch` / :meth:`overlay_instance`
    per epoch.  All randomness comes from per-epoch sub-streams of the
    dedicated scenario seed (one stream per event plus one for shedding), and
    the runtime is consulted exactly once per epoch.
    """

    def __init__(
        self,
        timeline: ScenarioTimeline,
        scenario: "DVEScenario",
        num_epochs: int,
        seed: SeedLike,
        admission: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.timeline = timeline
        self.admission = admission or AdmissionPolicy()
        self.pool = DegradedPool()
        self._epoch_seeds = reserve_seeds(seed, num_epochs)
        self._topology = scenario.topology
        self._dist_spec = scenario.config.distribution_spec
        self._num_zones = scenario.num_zones
        self._server_nodes = scenario.servers.nodes
        self._base_caps = np.array(scenario.servers.capacities, dtype=np.float64)
        self._prev_caps = self._base_caps.copy()

        num_servers = scenario.num_servers
        num_nodes = scenario.topology.num_nodes
        rtt = scenario.delay_model.rtt
        anchors = None

        def _anchors() -> np.ndarray:
            nonlocal anchors
            if anchors is None:
                stored = scenario.client_server_delays.zone_anchors
                if stored is not None:
                    anchors = stored
                else:
                    anchors = zone_anchor_nodes(
                        scenario.population.nodes,
                        scenario.population.zones,
                        self._num_zones,
                        num_nodes,
                    )
            return anchors

        check_event_zones(timeline, self._num_zones)
        self._event_data: List[Optional[np.ndarray]] = []
        for event in timeline.events:
            if isinstance(event, (OutageEvent, LinkDegradationEvent)):
                anchor = int(_anchors()[event.zone])
                if isinstance(event, OutageEvent):
                    # Nearest servers to the anchor, ties by index; at least
                    # one server always stays ungated.
                    order = np.argsort(rtt[anchor, self._server_nodes], kind="stable")
                    count = min(event.radius, num_servers - 1)
                    self._event_data.append(order[:count].astype(np.int64))
                else:
                    order = np.argsort(rtt[anchor], kind="stable")
                    count = min(event.radius, num_nodes)
                    self._event_data.append(order[:count].astype(np.int64))
            elif isinstance(event, MaintenanceEvent):
                size = min(
                    max(math.ceil(event.fraction * num_servers), 1), max(num_servers - 1, 0)
                )
                start = event.group_start % num_servers
                self._event_data.append(
                    (start + np.arange(size, dtype=np.int64)) % num_servers
                )
            else:
                self._event_data.append(None)

    # ------------------------------------------------------------------ #
    def plan_epoch(
        self,
        epoch: int,
        churn_spec: ChurnSpec,
        capacity_delta: Optional[np.ndarray] = None,
    ) -> EpochPlan:
        """Resolve the timeline's effect on ``epoch``.

        ``capacity_delta`` (a federation capacity re-slice) replaces the
        *base* capacities first; gates then apply on top, so an outage during
        a re-slice downs the re-sliced fleet.
        """
        events = self.timeline.events
        # One stream per event, then the shedding stream; only a flash crowd
        # (and shedding, when it happens) draws, so the rest stay underived.
        streams = reserve_seeds(self._epoch_seeds[epoch], len(events) + 1)

        join_scale = 1.0
        leave_scale = 1.0
        gate_factors = np.ones(self._base_caps.shape[0], dtype=np.float64)
        node_factors: Optional[np.ndarray] = None
        extra_nodes: List[np.ndarray] = []
        extra_zones: List[np.ndarray] = []

        for index, (event, data) in enumerate(zip(events, self._event_data)):
            if isinstance(event, MaintenanceEvent):
                if event.in_window(epoch):
                    gate_factors[data] *= event.factor
                continue
            if not event.active(epoch):
                continue
            if isinstance(event, OutageEvent):
                gate_factors[data] = 0.0
            elif isinstance(event, FlashCrowdEvent):
                count = int(round(event.clients * math.exp(-(epoch - event.start) / event.tau)))
                if count > 0:
                    nodes = sample_client_nodes(
                        self._topology, count, self._dist_spec, seed=streams[index]
                    )
                    extra_nodes.append(nodes)
                    extra_zones.append(np.full(count, event.zone, dtype=np.int64))
            elif isinstance(event, DiurnalEvent):
                factor = 1.0 + event.amplitude * math.sin(
                    2.0 * math.pi * (epoch - event.start) / event.period
                )
                factor = max(factor, 0.0)
                join_scale *= factor
                leave_scale *= max(2.0 - factor, 0.0)
            elif isinstance(event, LinkDegradationEvent):
                if node_factors is None:
                    node_factors = np.ones(self._topology.num_nodes, dtype=np.float64)
                node_factors[data] *= event.factor

        base = self._base_caps
        if capacity_delta is not None:
            delta = np.asarray(capacity_delta, dtype=np.float64)
            if delta.shape != base.shape:
                raise ValueError(
                    f"capacity_delta must have shape {base.shape}, got {delta.shape}"
                )
            self._base_caps = delta.copy()
            base = self._base_caps
        if (gate_factors < 1.0).any():
            effective = np.maximum(base * gate_factors, MIN_GATED_CAPACITY_BPS)
        else:
            effective = base
        server_churn: Optional[ServerChurnResult] = None
        if capacity_delta is not None or not np.array_equal(effective, self._prev_caps):
            server_churn = ServerChurnResult.capacity_only(self._server_nodes, effective.copy())
        self._prev_caps = np.array(effective, dtype=np.float64)

        spec = churn_spec
        if join_scale != 1.0 or leave_scale != 1.0:
            spec = replace(
                spec,
                num_joins=max(0, int(round(spec.num_joins * join_scale))),
                num_leaves=max(0, int(round(spec.num_leaves * leave_scale))),
            )
        if extra_nodes:
            join_nodes = np.concatenate(extra_nodes)
            join_zones = np.concatenate(extra_zones)
        else:
            join_nodes = np.zeros(0, dtype=np.int64)
            join_zones = np.zeros(0, dtype=np.int64)

        return EpochPlan(
            epoch=epoch,
            churn_spec=spec,
            extra_join_nodes=join_nodes,
            extra_join_zones=join_zones,
            server_churn=server_churn,
            node_delay_factors=node_factors,
            total_capacity=float(effective.sum()),
            shed_seed=streams[len(events)],
        )

    def prepare_batch(
        self, plan: EpochPlan, batch: ChurnBatch, population: ClientPopulation
    ) -> tuple[ChurnBatch, AdmissionStats]:
        """Merge the plan's extra joins into a batch and run admission control."""
        if plan.extra_join_nodes.size:
            batch = ChurnBatch(
                join_nodes=np.concatenate([batch.join_nodes, plan.extra_join_nodes]),
                join_zones=np.concatenate([batch.join_zones, plan.extra_join_zones]),
                leave_indices=batch.leave_indices,
                move_indices=batch.move_indices,
                move_zones=batch.move_zones,
            )
        return admission_control(
            batch,
            population,
            self._num_zones,
            STREAM_BPS,
            plan.total_capacity,
            self.pool,
            self.admission,
            plan.shed_seed,
            epoch=plan.epoch,
        )

    def overlay_instance(self, plan: EpochPlan, instance: CAPInstance) -> CAPInstance:
        """The instance the algorithms see: delay overlays applied, if any.

        Link degradation scales the affected nodes' client→server delay rows.
        The overlay is a *new* instance over fresh (or re-tabled) delay
        arrays — the clean instance keeps advancing through the delta
        pipeline, so overlay epochs never corrupt the `mirrors_arrays_of`
        aliasing invariant, and measurement stashes keyed to the clean
        instance simply miss (falling back to the full recompute, which keeps
        full/incremental measurement bit-identical through incidents).  An
        overlay that scales no client's node leaves the instance as it is.
        """
        factors = plan.node_delay_factors
        matrix = instance.client_server_delays
        if factors is None or (factors[matrix.client_nodes] == 1.0).all():
            return instance
        return CAPInstance._from_validated_arrays(
            client_server_delays=matrix.with_node_server(matrix.node_server * factors[:, None]),
            server_server_delays=instance.server_server_delays,
            client_zones=instance.client_zones,
            client_demands=instance.client_demands,
            server_capacities=instance.server_capacities,
            delay_bound=instance.delay_bound,
            num_zones=instance.num_zones,
        )
