"""The fluent, validating :class:`Scenario` builder.

One choke point for experiment assembly (the paper's single declarative
description, §3): every front-end — the listing-style text language, the
dict form, Modelnet XML, the programmatic topology generators and the
THUNDERSTORM scenario scripts — *produces* a builder, and everything
downstream (engine, deployment generator, CLI, experiment runners)
consumes the :class:`~repro.scenario.compiled.CompiledScenario` the
builder compiles to.

The builder is deliberately declaration-order-free: links may reference
services declared later, because all cross-referencing is validated in
:meth:`Scenario.compile`, which reports *every* undeclared endpoint and
*every* duplicate name in one :class:`~repro.topology.model.TopologyError`
instead of failing on the first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.topology.events import DynamicEvent, EventAction, EventSchedule
from repro.topology.model import (
    Bridge,
    LinkProperties,
    Service,
    Topology,
    TopologyError,
)
from repro.units import parse_rate, parse_time

__all__ = [
    "Scenario",
    "WorkloadEndpointError",
    "PendingEvent",
    "set_link",
    "link_down",
    "link_up",
    "node_join",
    "node_leave",
]

Number = Union[str, float, int]


class WorkloadEndpointError(TopologyError):
    """Workloads name containers the scenario never declares or joins.

    ``endpoints`` holds every offending ``(path, name)`` pair, ``path``
    being a JSON pointer such as ``workloads[0].destination``.
    """

    def __init__(self, message: str,
                 endpoints: Tuple[Tuple[str, str], ...] = ()) -> None:
        super().__init__(message)
        self.endpoints = tuple(endpoints)


def _time(value: Optional[Number], *, default_unit: str = "s") -> float:
    """Seconds from a raw float (already seconds) or a ``"10ms"`` string."""
    if value is None:
        return 0.0
    return parse_time(value, default_unit=default_unit)


def _rate(value: Optional[Number]) -> float:
    """Bits/s from a raw float (already bits/s) or a ``"10Mbps"`` string."""
    if value is None:
        return float("inf")
    return parse_rate(value)


def _loss(value: Optional[Number]) -> float:
    """A loss probability from a float or a ``"2%"`` string."""
    if value is None:
        return 0.0
    if isinstance(value, str):
        raw = value.strip()
        if raw.endswith("%"):
            return float(raw[:-1]) / 100.0
        return float(raw)
    return float(value)


# --------------------------------------------------------------------------
# Declaration specs: pure data until compile() builds the Topology.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceSpec:
    name: str
    image: str = "scratch"
    replicas: int = 1
    command: Optional[str] = None
    tags: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class BridgeSpec:
    name: str


@dataclass(frozen=True)
class LinkSpec:
    """One declared link, in SI base units; ``down`` is the reverse capacity."""

    source: str
    destination: str
    latency: float = 0.0
    up: float = float("inf")
    down: Optional[float] = None      # None: mirror `up` when bidirectional
    jitter: float = 0.0
    loss: float = 0.0
    jitter_distribution: str = "normal"
    bidirectional: bool = True
    network: str = "default"

    def forward_properties(self) -> LinkProperties:
        return LinkProperties(latency=self.latency, bandwidth=self.up,
                              jitter=self.jitter, loss=self.loss,
                              jitter_distribution=self.jitter_distribution)

    def backward_properties(self) -> LinkProperties:
        bandwidth = self.up if self.down is None else self.down
        return LinkProperties(latency=self.latency, bandwidth=bandwidth,
                              jitter=self.jitter, loss=self.loss,
                              jitter_distribution=self.jitter_distribution)


# --------------------------------------------------------------------------
# Event helpers for Scenario.at(): partially-specified dynamic events.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class PendingEvent:
    """A dynamic event waiting for :meth:`Scenario.at` to stamp its time."""

    action: EventAction
    origin: Optional[str] = None
    destination: Optional[str] = None
    name: Optional[str] = None
    properties: Optional[LinkProperties] = None
    changes: Tuple[Tuple[str, float], ...] = ()
    bidirectional: bool = True

    def at(self, time: float) -> DynamicEvent:
        return DynamicEvent(time=time, action=self.action, origin=self.origin,
                            destination=self.destination, name=self.name,
                            properties=self.properties,
                            changes=dict(self.changes),
                            bidirectional=self.bidirectional)


def set_link(origin: str, destination: str, *,
             latency: Optional[Number] = None,
             bandwidth: Optional[Number] = None,
             up: Optional[Number] = None,
             jitter: Optional[Number] = None,
             loss: Optional[Number] = None,
             bidirectional: bool = True) -> PendingEvent:
    """Change selected properties of an existing link (others untouched)."""
    changes: List[Tuple[str, float]] = []
    if latency is not None:
        changes.append(("latency", _time(latency)))
    if jitter is not None:
        changes.append(("jitter", _time(jitter)))
    if loss is not None:
        changes.append(("loss", _loss(loss)))
    capacity = up if up is not None else bandwidth
    if capacity is not None:
        changes.append(("bandwidth", _rate(capacity)))
    if not changes:
        raise TopologyError(
            f"set_link({origin!r}, {destination!r}) changes nothing")
    return PendingEvent(EventAction.SET_LINK, origin=origin,
                        destination=destination, changes=tuple(changes),
                        bidirectional=bidirectional)


def link_down(origin: str, destination: str, *,
              bidirectional: bool = True) -> PendingEvent:
    """Remove a link (half of the paper's flapping-link pattern)."""
    return PendingEvent(EventAction.LEAVE_LINK, origin=origin,
                        destination=destination, bidirectional=bidirectional)


def link_up(origin: str, destination: str, *,
            latency: Number = 0.0, bandwidth: Optional[Number] = None,
            up: Optional[Number] = None, jitter: Number = 0.0,
            loss: Number = 0.0, bidirectional: bool = True) -> PendingEvent:
    """(Re-)add a link with the given properties."""
    capacity = up if up is not None else bandwidth
    properties = LinkProperties(latency=_time(latency),
                                bandwidth=_rate(capacity),
                                jitter=_time(jitter), loss=_loss(loss))
    return PendingEvent(EventAction.JOIN_LINK, origin=origin,
                        destination=destination, properties=properties,
                        bidirectional=bidirectional)


def node_join(name: str) -> PendingEvent:
    """(Re-)add a service or bridge by name."""
    return PendingEvent(EventAction.JOIN_NODE, name=name)


def node_leave(name: str) -> PendingEvent:
    """Remove a service or bridge (and every link touching it)."""
    return PendingEvent(EventAction.LEAVE_NODE, name=name)


# --------------------------------------------------------------------------
# The builder.
# --------------------------------------------------------------------------
class Scenario:
    """Fluent builder for a complete experiment scenario.

    Usage::

        compiled = (Scenario.build("figure1")
                    .service("c1", image="iperf")
                    .service("sv", image="nginx", replicas=2)
                    .bridges("s1", "s2")
                    .link("c1", "s1", latency="10ms", up="10Mbps")
                    .link("s1", "s2", latency="20ms", up="100Mbps")
                    .link("sv", "s2", latency="5ms", up="50Mbps")
                    .at(30, set_link("s1", "s2", latency="80ms"))
                    .workload(ping("c1", "sv.0"), iperf("c1", "sv.0"))
                    .deploy(machines=2, seed=42)
                    .compile())

    Every mutator returns ``self`` so calls chain; :meth:`compile` freezes
    the result into an immutable
    :class:`~repro.scenario.compiled.CompiledScenario`.
    """

    def __init__(self, name: str = "experiment") -> None:
        self.name = name
        self._services: List[ServiceSpec] = []
        self._bridges: List[BridgeSpec] = []
        self._links: List[LinkSpec] = []
        self._events: List[DynamicEvent] = []
        self._scripts: List[str] = []
        self._workloads: List[object] = []
        self._deploy_kwargs: Dict[str, object] = {}
        self._placement: Optional[Dict[str, str]] = None
        self._duration: Optional[float] = None

    # ------------------------------------------------------------ creation
    @classmethod
    def build(cls, name: str = "experiment") -> "Scenario":
        """Start a fresh builder (the canonical entry point)."""
        return cls(name)

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        """Builder from the paper's listing-style description language."""
        from repro.scenario.frontends import scenario_from_text
        return scenario_from_text(text)

    @classmethod
    def from_dict(cls, description: Dict) -> "Scenario":
        """Builder from the dict form (what a YAML loader would give)."""
        from repro.scenario.frontends import scenario_from_dict
        return scenario_from_dict(description)

    @classmethod
    def from_xml(cls, text: str) -> "Scenario":
        """Builder from a Modelnet-style XML topology."""
        from repro.scenario.frontends import scenario_from_xml
        return scenario_from_xml(text)

    @classmethod
    def from_file(cls, path: str) -> "Scenario":
        """Builder from a description file, dispatched on suffix."""
        from repro.scenario.frontends import scenario_from_file
        return scenario_from_file(path)

    @classmethod
    def from_topology(cls, topology: Topology,
                      schedule: Optional[EventSchedule] = None) -> "Scenario":
        """Adopt an already-built :class:`Topology` (plus schedule)."""
        from repro.scenario.frontends import scenario_from_topology
        return scenario_from_topology(topology, schedule)

    # --------------------------------------------------------------- nodes
    def service(self, name: str, *, image: str = "scratch",
                replicas: int = 1, command: Optional[str] = None,
                tags: Optional[Dict[str, str]] = None) -> "Scenario":
        """Declare a service: ``replicas`` containers sharing ``image``."""
        self._services.append(ServiceSpec(
            name=name, image=image, replicas=int(replicas), command=command,
            tags=tuple(sorted((tags or {}).items()))))
        return self

    def bridge(self, name: str) -> "Scenario":
        """Declare one switch/router."""
        self._bridges.append(BridgeSpec(name))
        return self

    def bridges(self, *names: str) -> "Scenario":
        """Declare several switches/routers at once."""
        for name in names:
            self.bridge(name)
        return self

    # --------------------------------------------------------------- links
    def link(self, source: str, destination: str, *,
             latency: Number = 0.0, bandwidth: Optional[Number] = None,
             up: Optional[Number] = None, down: Optional[Number] = None,
             jitter: Number = 0.0, loss: Number = 0.0,
             jitter_distribution: str = "normal", bidirectional: bool = True,
             network: str = "default") -> "Scenario":
        """Declare a link.

        Numeric values are SI base units (seconds, bits/s); strings carry
        units (``"10ms"``, ``"100Mbps"``, ``"2%"``) and are parsed through
        :mod:`repro.units`.  ``up``/``down`` give asymmetric capacities;
        ``bandwidth`` is the symmetric shorthand.  ``down`` defaults to
        ``up`` when the link is bidirectional.
        """
        capacity = up if up is not None else bandwidth
        self._links.append(LinkSpec(
            source=source, destination=destination,
            latency=_time(latency), up=_rate(capacity),
            down=None if down is None else _rate(down),
            jitter=_time(jitter), loss=_loss(loss),
            jitter_distribution=jitter_distribution,
            bidirectional=bool(bidirectional), network=network))
        return self

    def unlink(self, source: str, destination: str) -> "Scenario":
        """Withdraw a previously declared link (either direction)."""
        for index, spec in enumerate(self._links):
            if {spec.source, spec.destination} == {source, destination}:
                del self._links[index]
                return self
        raise TopologyError(
            f"no declared link between {source!r} and {destination!r}")

    # -------------------------------------------------------------- events
    def at(self, time: Number,
           *events: Union[PendingEvent, DynamicEvent]) -> "Scenario":
        """Schedule dynamic events at ``time`` (seconds or ``"90s"``-style)."""
        stamp = _time(time)
        if not events:
            raise TopologyError(f"at({time!r}) schedules no events")
        for event in events:
            if isinstance(event, PendingEvent):
                self._events.append(event.at(stamp))
            elif isinstance(event, DynamicEvent):
                self._events.append(dataclasses.replace(event, time=stamp))
            else:
                raise TopologyError(
                    f"at() takes PendingEvent/DynamicEvent, got {event!r}")
        return self

    def event(self, event: DynamicEvent) -> "Scenario":
        """Append an already-timed :class:`DynamicEvent` (escape hatch)."""
        self._events.append(event)
        return self

    def script(self, text: str) -> "Scenario":
        """Attach a THUNDERSTORM scenario script (compiled at compile())."""
        self._scripts.append(text)
        return self

    # ----------------------------------------------------------- workloads
    def workload(self, *specs) -> "Scenario":
        """Attach workload specs (see :mod:`repro.scenario.workloads`)."""
        from repro.scenario.workloads import Workload
        for spec in specs:
            if not isinstance(spec, Workload):
                raise TopologyError(
                    f"workload() takes Workload specs, got {spec!r}")
            self._workloads.append(spec)
        return self

    # ---------------------------------------------------------- deployment
    def deploy(self, *, machines: Optional[int] = None,
               seed: Optional[int] = None,
               placement: Optional[Dict[str, str]] = None,
               duration: Optional[Number] = None,
               **tunables) -> "Scenario":
        """Configure the deployment: cluster size, seed and engine tunables.

        ``tunables`` accepts any :class:`~repro.core.engine.EngineConfig`
        field (``loop_period``, ``time_dilation``,
        ``enforce_bandwidth_sharing``, ...); unknown names fail immediately.
        Calls are incremental: only the settings named in this call change,
        so a CLI can override one knob of a pre-configured scenario without
        resetting the rest to defaults.
        """
        from repro.core.engine import EngineConfig
        valid = {f.name for f in dataclasses.fields(EngineConfig)}
        unknown = sorted(set(tunables) - valid)
        if unknown:
            raise TypeError(
                f"unknown deploy() tunables {unknown}; valid: {sorted(valid)}")
        self._deploy_kwargs.update(tunables)
        if machines is not None:
            self._deploy_kwargs["machines"] = int(machines)
        if seed is not None:
            self._deploy_kwargs["seed"] = int(seed)
        if placement is not None:
            self._placement = dict(placement)
        if duration is not None:
            self._duration = _time(duration)
        return self

    # -------------------------------------------------------- compilation
    def compile(self) -> "CompiledScenario":
        """Validate everything and freeze into a :class:`CompiledScenario`.

        Validation is whole-program: duplicate service/bridge names, links
        whose endpoints were never declared and workloads naming unknown
        containers are each reported as one :class:`TopologyError` listing
        *all* offending names.
        """
        from repro.core.engine import EngineConfig
        from repro.scenario.compiled import CompiledScenario

        self._validate_names()
        topology = Topology(self.name)
        for spec in self._services:
            topology.add_service(Service(
                name=spec.name, image=spec.image, replicas=spec.replicas,
                command=spec.command, tags=dict(spec.tags)))
        for spec in self._bridges:
            topology.add_bridge(Bridge(spec.name))
        for spec in self._links:
            topology.add_link(
                spec.source, spec.destination, spec.forward_properties(),
                bidirectional=spec.bidirectional,
                down_properties=(spec.backward_properties()
                                 if spec.bidirectional else None),
                network=spec.network)
        topology.validate()

        self._validate_events()
        self._validate_workloads()
        schedule = EventSchedule(list(self._events))
        for text in self._scripts:
            from repro.topology.thunderstorm import compile_scenario
            for event in compile_scenario(text, topology):
                schedule.add(event)
        self._validate_endpoints(topology, schedule)

        config = EngineConfig(**self._deploy_kwargs)
        return CompiledScenario(
            name=self.name, topology=topology, schedule=schedule,
            workloads=tuple(self._workloads), config=config,
            placement=(dict(self._placement)
                       if self._placement is not None else None),
            duration=self._duration,
            services=tuple(self._services), bridge_specs=tuple(self._bridges),
            link_specs=tuple(self._links))

    def _validate_names(self) -> None:
        declared: Dict[str, int] = {}
        for spec in list(self._services) + list(self._bridges):
            declared[spec.name] = declared.get(spec.name, 0) + 1
        duplicates = sorted(name for name, count in declared.items()
                            if count > 1)
        problems: List[str] = []
        if duplicates:
            problems.append(
                f"duplicate service/bridge names: {', '.join(duplicates)}")
        unknown = sorted({endpoint for spec in self._links
                          for endpoint in (spec.source, spec.destination)
                          if endpoint not in declared})
        if unknown:
            problems.append(
                f"links reference undeclared nodes: {', '.join(unknown)}")
        if problems:
            raise TopologyError(
                f"scenario {self.name!r} is invalid: " + "; ".join(problems))

    def _validate_events(self) -> None:
        """Cheap name-level check: every link event must reference nodes
        that are declared or joined by an earlier event.  (Full semantic
        validation — e.g. removing an already-removed link — still happens
        in the engine's offline pre-computation, as before.)"""
        known = {spec.name for spec in self._services}
        known |= {spec.name for spec in self._bridges}
        bad: List[str] = []
        for event in sorted(self._events, key=lambda e: e.time):
            if event.action is EventAction.JOIN_NODE and event.name:
                known.add(event.name)
                continue
            if event.name is not None:
                if event.name not in known:
                    bad.append(event.name)
                continue
            for endpoint in (event.origin, event.destination):
                if endpoint is not None and endpoint not in known:
                    bad.append(endpoint)
        if bad:
            raise TopologyError(
                f"scenario {self.name!r}: dynamic events reference "
                f"undeclared nodes: {', '.join(sorted(set(bad)))}")

    def _validate_endpoints(self, topology: Topology,
                            schedule: EventSchedule) -> None:
        """Every workload endpoint must be a declared container or a node
        a join event adds (an undeclared name joins as a fresh
        single-replica service, so its container is the name itself)."""
        known = set(topology.container_names())
        known |= {event.name for event in schedule
                  if event.action is EventAction.JOIN_NODE
                  and not topology.has_node(event.name)}
        bad = [(f"workloads[{index}].{field}", name)
               for index, workload in enumerate(self._workloads)
               for field, name in workload.endpoints()
               if name not in known]
        if bad:
            raise WorkloadEndpointError(
                f"scenario {self.name!r}: workloads name undeclared "
                "containers: " + ", ".join(f"{path}={name!r}"
                                           for path, name in bad), bad)

    def _validate_workloads(self) -> None:
        keys = [workload.key for workload in self._workloads]
        duplicates = sorted({str(key) for key in keys if keys.count(key) > 1})
        if duplicates:
            raise TopologyError(
                f"scenario {self.name!r}: duplicate workload keys: "
                f"{', '.join(duplicates)} (pass key=... to disambiguate)")
