"""`.scn` — the canonical on-disk scenario format, with a hard
round-trip guarantee.

``dump_scn`` serializes a compiled scenario (or a builder) into a
versioned JSON document; ``load_scn`` turns such a document back into a
:class:`~repro.scenario.builder.Scenario`.  The contract, enforced by
``tests/test_scenario_dsl.py`` over every example and thousands of
fuzzed scenarios:

    compile → dump → reload → recompile
    ⇒ byte-identical ``describe()`` and ``path_table()``

which makes the ``.scn`` file a faithful, reviewable artifact of the
experiment — the choke point every front-end (text, dict, XML, the
topology generators, THUNDERSTORM) exports into.

Design notes:

* Dumps are canonical: SI base units only, defaults omitted, one stable
  key order, ``float('inf')`` spelled ``"unlimited"`` (JSON has no
  Infinity).  Loads are liberal: unit strings (``"10ms"``, ``"100Mbps"``,
  ``"2%"``) are accepted everywhere a number is.
* THUNDERSTORM scripts may appear in a hand-written document (they lower
  into events at compile time); dumps always emit the lowered events, so
  a dumped file never depends on the script compiler.
* :class:`~repro.scenario.workloads.CustomWorkload` carries callables and
  is therefore not serializable; dumping one is a loud :class:`ScnError`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Union

from repro.scenario.builder import LinkSpec, Scenario, ServiceSpec
from repro.scenario.dsl.schema import (
    SCN_VERSION,
    Diagnostic,
    coerce_loss,
    coerce_rate,
    coerce_time,
    validate_document,
)
from repro.scenario.workloads import (
    CurlSwarmWorkload,
    FlowWorkload,
    HttpLoadWorkload,
    IperfWorkload,
    PingWorkload,
)
from repro.topology.events import DynamicEvent, EventAction
from repro.topology.model import LinkProperties, TopologyError

__all__ = ["ScnError", "scn_document", "dumps_scn", "dump_scn",
           "scenario_from_scn", "loads_scn", "load_scn"]

_UNLIMITED = "unlimited"


class ScnError(TopologyError):
    """A `.scn` document failed to parse, validate or serialize.

    ``diagnostics`` carries every individual finding when the failure
    came from schema validation.
    """

    def __init__(self, message: str,
                 diagnostics: Optional[List[Diagnostic]] = None) -> None:
        self.diagnostics = list(diagnostics or [])
        if self.diagnostics:
            message += "\n" + "\n".join(str(item)
                                        for item in self.diagnostics)
        super().__init__(message)


# --------------------------------------------------------------------------
# Dumping.
# --------------------------------------------------------------------------
def _rate_out(value: float) -> Union[float, str]:
    return _UNLIMITED if value == float("inf") else value


def _service_out(spec: ServiceSpec) -> Dict:
    out: Dict = {"name": spec.name}
    if spec.image != "scratch":
        out["image"] = spec.image
    if spec.replicas != 1:
        out["replicas"] = spec.replicas
    if spec.command is not None:
        out["command"] = spec.command
    if spec.tags:
        out["tags"] = dict(spec.tags)
    return out


def _link_out(spec: LinkSpec) -> Dict:
    out: Dict = {"orig": spec.source, "dest": spec.destination}
    if spec.latency:
        out["latency"] = spec.latency
    if spec.up != float("inf"):
        out["up"] = spec.up
    if spec.down is not None:
        out["down"] = spec.down
    if spec.jitter:
        out["jitter"] = spec.jitter
    if spec.loss:
        out["loss"] = spec.loss
    if spec.jitter_distribution != "normal":
        out["jitter_distribution"] = spec.jitter_distribution
    if not spec.bidirectional:
        out["bidirectional"] = False
    if spec.network != "default":
        out["network"] = spec.network
    return out


def _properties_out(properties: LinkProperties) -> Dict:
    out: Dict = {}
    if properties.latency:
        out["latency"] = properties.latency
    if properties.bandwidth != float("inf"):
        out["bandwidth"] = properties.bandwidth
    if properties.jitter:
        out["jitter"] = properties.jitter
    if properties.loss:
        out["loss"] = properties.loss
    if properties.jitter_distribution != "normal":
        out["jitter_distribution"] = properties.jitter_distribution
    return out


def _event_out(event: DynamicEvent) -> Dict:
    out: Dict = {"time": event.time, "action": event.action.value}
    if event.action in (EventAction.JOIN_NODE, EventAction.LEAVE_NODE):
        out["name"] = event.name
        return out
    out["orig"] = event.origin
    out["dest"] = event.destination
    if event.action is EventAction.SET_LINK and event.changes:
        out["changes"] = {field: _rate_out(value) if field == "bandwidth"
                          else value
                          for field, value in event.changes.items()}
    if event.properties is not None:
        out["properties"] = _properties_out(event.properties)
    if not event.bidirectional:
        out["bidirectional"] = False
    return out


def _workload_out(workload) -> Dict:
    if isinstance(workload, FlowWorkload):
        out: Dict = {"kind": "flow"}
        _key_out(out, workload)
        out.update(source=workload.source, destination=workload.destination)
        if workload.demand != float("inf"):
            out["demand"] = workload.demand
        if workload.protocol != "tcp":
            out["protocol"] = workload.protocol
        if workload.congestion_control != "cubic":
            out["congestion_control"] = workload.congestion_control
        if workload.start:
            out["start"] = workload.start
        if workload.stop is not None:
            out["stop"] = workload.stop
        return out
    if isinstance(workload, IperfWorkload):
        out = {"kind": "iperf"}
        _key_out(out, workload)
        out.update(source=workload.source, destination=workload.destination)
        if workload.duration != 60.0:
            out["duration"] = workload.duration
        if workload.demand != float("inf"):
            out["demand"] = workload.demand
        if workload.protocol != "tcp":
            out["protocol"] = workload.protocol
        if workload.congestion_control != "cubic":
            out["congestion_control"] = workload.congestion_control
        if workload.warmup != 2.0:
            out["warmup"] = workload.warmup
        if workload.start:
            out["start"] = workload.start
        return out
    if isinstance(workload, PingWorkload):
        out = {"kind": "ping"}
        _key_out(out, workload)
        out.update(source=workload.source, destination=workload.destination)
        if workload.count != 100:
            out["count"] = workload.count
        if workload.interval != 0.010:
            out["interval"] = workload.interval
        if workload.start:
            out["start"] = workload.start
        return out
    if isinstance(workload, HttpLoadWorkload):
        out = {"kind": "http"}
        _key_out(out, workload)
        out.update(source=workload.source, server=workload.server)
        if workload.connections != 100:
            out["connections"] = workload.connections
        if workload.start:
            out["start"] = workload.start
        if workload.stop is not None:
            out["stop"] = workload.stop
        return out
    if isinstance(workload, CurlSwarmWorkload):
        out = {"kind": "curl"}
        _key_out(out, workload)
        out.update(sources=list(workload.sources), server=workload.server)
        return out
    raise ScnError(
        f"workload {getattr(workload, 'key', workload)!r} of type "
        f"{type(workload).__name__} is not .scn-serializable (custom "
        f"workloads carry Python callables; keep those scenarios in .py)")


def _key_out(out: Dict, workload) -> None:
    if not isinstance(workload.key, str):
        raise ScnError(f"workload key {workload.key!r} is not a string; "
                       f".scn files require string keys")
    out["key"] = workload.key


def _deploy_out(compiled) -> Dict:
    import dataclasses

    from repro.core.engine import EngineConfig
    out: Dict = {}
    defaults = EngineConfig()
    config = compiled.config
    if config.machines != defaults.machines:
        out["machines"] = config.machines
    if config.seed != defaults.seed:
        out["seed"] = config.seed
    if compiled.duration is not None:
        out["duration"] = compiled.duration
    if compiled.placement is not None:
        out["placement"] = dict(sorted(compiled.placement.items()))
    for field in sorted(dataclasses.fields(EngineConfig),
                        key=lambda item: item.name):
        if field.name in ("machines", "seed"):
            continue
        value = getattr(config, field.name)
        if value != getattr(defaults, field.name):
            out[field.name] = value
    return out


def scn_document(scenario) -> Dict:
    """The canonical ``.scn`` dict for a scenario (builder or compiled)."""
    compiled = scenario.compile() if isinstance(scenario, Scenario) \
        else scenario
    document: Dict = {"scn": SCN_VERSION, "name": compiled.name}
    if compiled.services:
        document["services"] = [_service_out(spec)
                                for spec in compiled.services]
    if compiled.bridge_specs:
        document["bridges"] = [spec.name for spec in compiled.bridge_specs]
    if compiled.link_specs:
        document["links"] = [_link_out(spec) for spec in compiled.link_specs]
    if len(compiled.schedule):
        document["events"] = [_event_out(event)
                              for event in compiled.schedule]
    if compiled.workloads:
        document["workloads"] = [_workload_out(workload)
                                 for workload in compiled.workloads]
    deploy = _deploy_out(compiled)
    if deploy:
        document["deploy"] = deploy
    return document


def dumps_scn(scenario) -> str:
    """Canonical ``.scn`` text for a scenario (builder or compiled)."""
    return json.dumps(scn_document(scenario), indent=2,
                      allow_nan=False) + "\n"


def dump_scn(scenario, path) -> None:
    """Write the canonical ``.scn`` file for a scenario."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_scn(scenario))


# --------------------------------------------------------------------------
# Loading.
# --------------------------------------------------------------------------
def scenario_from_scn(document: Dict, *, validate: bool = True) -> Scenario:
    """A :class:`Scenario` builder from a ``.scn`` document dict.

    With ``validate`` (the default) the document is schema-checked first
    and every error is reported in one :class:`ScnError`.
    """
    if validate:
        errors = [item for item in validate_document(document)
                  if item.severity == "error"]
        if errors:
            raise ScnError(f"invalid .scn document "
                           f"({len(errors)} error(s))", errors)

    builder = Scenario.build(document.get("name", "experiment"))
    for spec in document.get("services", []):
        builder.service(spec["name"], image=spec.get("image", "scratch"),
                        replicas=spec.get("replicas", 1),
                        command=spec.get("command"),
                        tags=spec.get("tags"))
    for name in document.get("bridges", []):
        builder.bridge(name)
    for spec in document.get("links", []):
        capacity = spec.get("up", spec.get("bandwidth"))
        builder.link(
            spec["orig"], spec["dest"],
            latency=coerce_time(spec.get("latency", 0.0)),
            up=None if capacity is None else coerce_rate(capacity),
            down=(None if spec.get("down") is None
                  else coerce_rate(spec["down"])),
            jitter=coerce_time(spec.get("jitter", 0.0)),
            loss=coerce_loss(spec.get("loss", 0.0)),
            jitter_distribution=spec.get("jitter_distribution", "normal"),
            bidirectional=spec.get("bidirectional", True),
            network=spec.get("network", "default"))
    for spec in document.get("events", []):
        builder.event(_event_in(spec))
    for text in document.get("scripts", []):
        builder.script(text)
    for spec in document.get("workloads", []):
        builder.workload(_workload_in(spec))
    deploy = dict(document.get("deploy", {}))
    if deploy:
        duration = deploy.pop("duration", None)
        builder.deploy(
            machines=deploy.pop("machines", None),
            seed=deploy.pop("seed", None),
            placement=deploy.pop("placement", None),
            duration=None if duration is None else coerce_time(duration),
            **deploy)
    return builder


def _event_in(spec: Dict) -> DynamicEvent:
    action = EventAction(spec["action"])
    time = coerce_time(spec["time"])
    if action in (EventAction.JOIN_NODE, EventAction.LEAVE_NODE):
        return DynamicEvent(time=time, action=action, name=spec["name"])
    properties = None
    if "properties" in spec:
        raw = spec["properties"]
        properties = LinkProperties(
            latency=coerce_time(raw.get("latency", 0.0)),
            bandwidth=coerce_rate(raw.get("bandwidth", _UNLIMITED)),
            jitter=coerce_time(raw.get("jitter", 0.0)),
            loss=coerce_loss(raw.get("loss", 0.0)),
            jitter_distribution=raw.get("jitter_distribution", "normal"))
    changes = {}
    for field, value in spec.get("changes", {}).items():
        if field == "bandwidth":
            changes[field] = coerce_rate(value)
        elif field == "loss":
            changes[field] = coerce_loss(value)
        else:
            changes[field] = coerce_time(value)
    return DynamicEvent(time=time, action=action, origin=spec["orig"],
                        destination=spec["dest"], properties=properties,
                        changes=changes,
                        bidirectional=spec.get("bidirectional", True))


def _workload_in(spec: Dict):
    kind = spec["kind"]
    key = spec.get("key")
    if kind == "flow":
        return FlowWorkload(
            spec["source"], spec["destination"],
            demand=coerce_rate(spec.get("demand", _UNLIMITED)),
            protocol=spec.get("protocol", "tcp"),
            congestion_control=spec.get("congestion_control", "cubic"),
            start=coerce_time(spec.get("start", 0.0)),
            stop=(None if spec.get("stop") is None
                  else coerce_time(spec["stop"])),
            key=key)
    if kind == "iperf":
        return IperfWorkload(
            spec["source"], spec["destination"],
            duration=coerce_time(spec.get("duration", 60.0)),
            demand=coerce_rate(spec.get("demand", _UNLIMITED)),
            protocol=spec.get("protocol", "tcp"),
            congestion_control=spec.get("congestion_control", "cubic"),
            warmup=coerce_time(spec.get("warmup", 2.0)),
            start=coerce_time(spec.get("start", 0.0)), key=key)
    if kind == "ping":
        return PingWorkload(
            spec["source"], spec["destination"],
            count=spec.get("count", 100),
            interval=coerce_time(spec.get("interval", 0.010)),
            start=coerce_time(spec.get("start", 0.0)), key=key)
    if kind == "http":
        return HttpLoadWorkload(
            spec["source"], spec["server"],
            connections=spec.get("connections", 100),
            start=coerce_time(spec.get("start", 0.0)),
            stop=(None if spec.get("stop") is None
                  else coerce_time(spec["stop"])),
            key=key)
    if kind == "curl":
        return CurlSwarmWorkload(tuple(spec["sources"]), spec["server"],
                                 key=key)
    raise ScnError(f"unknown workload kind {kind!r}")


def loads_scn(text: str, *, validate: bool = True,
              source: str = "<string>") -> Scenario:
    """A :class:`Scenario` from ``.scn`` text (JSON, or YAML when the
    interpreter has a YAML parser available)."""
    document = _parse_scn_text(text, source)
    return scenario_from_scn(document, validate=validate)


def load_scn(path, *, validate: bool = True) -> Scenario:
    """A :class:`Scenario` from a ``.scn`` file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_scn(text, validate=validate, source=str(path))


def _parse_scn_text(text: str, source: str) -> Dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as json_error:
        try:
            import yaml  # optional; the container may not ship it
        except ImportError:
            raise ScnError(
                f"{source}:{json_error.lineno}:{json_error.colno}: "
                f"not valid JSON ({json_error.msg}) and no YAML parser "
                f"is installed") from json_error
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as yaml_error:
            raise ScnError(f"{source}: neither valid JSON "
                           f"({json_error.msg}) nor valid YAML "
                           f"({yaml_error})") from yaml_error
        if not isinstance(document, dict):
            raise ScnError(f"{source}: a .scn document is a mapping, "
                           f"got {type(document).__name__}")
        return document
