"""Front-ends that *produce* :class:`~repro.scenario.builder.Scenario`.

Every historical entry point into the toolchain — the dict form, the
paper's listing-style text language (Listings 1 and 2), Modelnet-like XML
and already-built :class:`~repro.topology.model.Topology` objects — is
re-implemented here as a producer of builders, so all validation and
compilation flows through the single :meth:`Scenario.compile` choke point.
"""

from __future__ import annotations

import importlib.util
import xml.etree.ElementTree as ElementTree
from typing import Dict, List, Optional, Union

from repro.scenario.builder import Scenario
from repro.topology.events import DynamicEvent, EventAction, EventSchedule
from repro.topology.model import Topology, TopologyError
from repro.units import parse_rate, parse_time

__all__ = [
    "scenario_from_dict",
    "scenario_from_text",
    "scenario_from_xml",
    "scenario_from_file",
    "scenario_from_topology",
]


def _as_bool(value: Union[bool, str, int, None], default: bool = True) -> bool:
    """Booleans from dict *and* text forms (``"false"`` must not be truthy)."""
    if value is None:
        return default
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("false", "no", "off", "0"):
            return False
        if lowered in ("true", "yes", "on", "1"):
            return True
        raise TopologyError(f"not a boolean: {value!r}")
    return bool(value)


def _require(spec: Dict, key: str, kind: str) -> str:
    try:
        return spec[key]
    except KeyError:
        raise TopologyError(f"{kind} stanza missing {key!r}: {spec}") from None


def _rate_value(value) -> float:
    """A capacity; ``"unlimited"`` (describe()'s spelling of inf) allowed."""
    if isinstance(value, str) and value.strip().lower() in ("unlimited",
                                                            "inf"):
        return float("inf")
    return parse_rate(value)


def _capacity(spec: Dict, direction: str) -> float:
    """The ``up``/``down`` capacity with ``bandwidth`` as symmetric fallback."""
    value = spec.get(direction, spec.get("bandwidth"))
    return _rate_value(value) if value is not None else float("inf")


# --------------------------------------------------------------------------
# Dict form — the canonical programmatic input.
# --------------------------------------------------------------------------
def scenario_from_dict(description: Dict) -> Scenario:
    """Builder from the dict form.

    Expected shape (all sections optional except ``services``)::

        {"experiment": {
            "services": [{"name": ..., "image": ..., "replicas": ...}, ...],
            "bridges":  [{"name": ...}, ...],
            "links":    [{"orig": ..., "dest": ..., "latency": ..., ...}, ...],
        },
         "dynamic": [{"time": ..., "action"/properties...}, ...]}

    Link ``latency``/``jitter`` default to milliseconds and bandwidths
    accept ``"10Mbps"``-style strings, exactly as the description language
    specifies.
    """
    body = description.get("experiment", description)
    builder = Scenario.build(body.get("name", "experiment"))

    for spec in body.get("services", []):
        builder.service(_require(spec, "name", "service"),
                        image=spec.get("image", "scratch"),
                        replicas=int(spec.get("replicas", 1)),
                        command=spec.get("command"),
                        tags=dict(spec.get("tags", {})))
    for spec in body.get("bridges", []):
        builder.bridge(_require(spec, "name", "bridge"))
    for spec in body.get("links", []):
        bidirectional = _as_bool(spec.get("bidirectional"))
        builder.link(
            _require(spec, "orig", "link"), _require(spec, "dest", "link"),
            latency=parse_time(spec.get("latency", 0.0), default_unit="ms"),
            up=_capacity(spec, "up"),
            down=_capacity(spec, "down") if bidirectional else None,
            jitter=parse_time(spec.get("jitter", 0.0), default_unit="ms"),
            loss=float(spec.get("loss", 0.0)),
            jitter_distribution=spec.get("jitter_distribution", "normal"),
            bidirectional=bidirectional,
            network=spec.get("network", "default"))
    for spec in description.get("dynamic", []):
        builder.event(_event_from_spec(spec))
    return builder


def _event_from_spec(spec: Dict) -> DynamicEvent:
    """One dynamic stanza (Listing 2 style) as a DynamicEvent."""
    time = parse_time(_require(spec, "time", "dynamic event"))
    action_name = spec.get("action")
    if action_name in ("join", "leave") and "name" in spec:
        action = (EventAction.JOIN_NODE if action_name == "join"
                  else EventAction.LEAVE_NODE)
        return DynamicEvent(time=time, action=action, name=spec["name"])

    origin = spec.get("orig")
    destination = spec.get("dest")
    if origin is None or destination is None:
        raise TopologyError(f"link event needs orig and dest: {spec}")
    bidirectional = _as_bool(spec.get("bidirectional"))

    if action_name == "leave":
        return DynamicEvent(time=time, action=EventAction.LEAVE_LINK,
                            origin=origin, destination=destination,
                            bidirectional=bidirectional)
    if action_name == "join":
        from repro.topology.model import LinkProperties
        properties = LinkProperties(
            latency=parse_time(spec.get("latency", 0.0), default_unit="ms"),
            bandwidth=_capacity(spec, "up"),
            jitter=parse_time(spec.get("jitter", 0.0), default_unit="ms"),
            loss=float(spec.get("loss", 0.0)),
            jitter_distribution=spec.get("jitter_distribution", "normal"))
        return DynamicEvent(time=time, action=EventAction.JOIN_LINK,
                            origin=origin, destination=destination,
                            properties=properties,
                            bidirectional=bidirectional)

    # No action keyword: a property change listing only the fields to alter.
    changes: Dict[str, float] = {}
    if "latency" in spec:
        changes["latency"] = parse_time(spec["latency"], default_unit="ms")
    if "jitter" in spec:
        changes["jitter"] = parse_time(spec["jitter"], default_unit="ms")
    if "loss" in spec:
        changes["loss"] = float(spec["loss"])
    if "up" in spec or "bandwidth" in spec:
        changes["bandwidth"] = _rate_value(spec.get("up",
                                                    spec.get("bandwidth")))
    if not changes:
        raise TopologyError(f"dynamic event changes nothing: {spec}")
    return DynamicEvent(time=time, action=EventAction.SET_LINK,
                        origin=origin, destination=destination,
                        changes=changes, bidirectional=bidirectional)


# --------------------------------------------------------------------------
# Listing-style text — the paper's lean YAML-like syntax.
# --------------------------------------------------------------------------
def scenario_from_text(text: str) -> Scenario:
    """Builder from the paper's listing syntax (Listings 1 and 2).

    The syntax is indentation-free within stanzas: a new stanza starts at
    each ``name:`` (services/bridges) or ``orig:`` (links) key, and a
    ``dynamic`` stanza ends at its ``time:`` key, under the current section
    header (``services:``, ``bridges:``, ``links:``, ``dynamic:``).
    """
    sections: Dict[str, List[Dict]] = {
        "services": [], "bridges": [], "links": [], "dynamic": []}
    section: Optional[str] = None
    stanza: Optional[Dict] = None
    stanza_opener = {"services": ("name",), "bridges": ("name",),
                     "links": ("orig",)}

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.rstrip(":") in ("experiment",):
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip().strip('"').strip("'")
        if not value and key in sections:
            section = key
            stanza = None
            continue
        if section is None:
            raise TopologyError(f"content outside any section: {raw_line!r}")
        if section == "dynamic":
            # In Listing 2 every event stanza ends with its ``time:`` key,
            # which is the only unambiguous boundary in the flat syntax.
            if stanza is None:
                stanza = {}
                sections[section].append(stanza)
            stanza[key] = value
            if key == "time":
                stanza = None
            continue
        opens_new = key in stanza_opener[section] and (
            stanza is None or key in stanza)
        if stanza is None or opens_new:
            stanza = {}
            sections[section].append(stanza)
        stanza[key] = value

    return scenario_from_dict({"experiment": {
        "services": sections["services"],
        "bridges": sections["bridges"],
        "links": sections["links"],
    }, "dynamic": sections["dynamic"]})


# --------------------------------------------------------------------------
# Modelnet-like XML — for porting existing topology descriptions.
# --------------------------------------------------------------------------
def scenario_from_xml(text: str) -> Scenario:
    """Builder from a Modelnet-style XML topology.

    ``role="virtnode"`` maps to services, everything else to bridges;
    latency/jitter default to milliseconds as in Modelnet files.
    """
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise TopologyError(f"malformed XML topology: {exc}") from exc

    builder = Scenario.build(root.get("name", "modelnet"))
    for vertex in root.iter("vertex"):
        name = vertex.get("name")
        if name is None:
            raise TopologyError("vertex without a name")
        if vertex.get("role", "gateway") == "virtnode":
            builder.service(name, image=vertex.get("image", "scratch"),
                            replicas=int(vertex.get("replicas", "1")))
        else:
            builder.bridge(name)

    for edge in root.iter("edge"):
        bandwidth = edge.get("bw") or edge.get("bandwidth")
        bidirectional = _as_bool(edge.get("bidirectional"))
        builder.link(
            edge.get("src"), edge.get("dst"),
            latency=parse_time(edge.get("latency", "0"), default_unit="ms"),
            up=parse_rate(bandwidth) if bandwidth is not None
            else float("inf"),
            down=(parse_rate(bandwidth) if bandwidth is not None
                  else float("inf")) if bidirectional else None,
            jitter=parse_time(edge.get("jitter", "0"), default_unit="ms"),
            loss=float(edge.get("loss", "0")),
            bidirectional=bidirectional)
    return builder


# --------------------------------------------------------------------------
# Files — suffix dispatch, including examples exposing a SCENARIO.
# --------------------------------------------------------------------------
def scenario_from_file(path: str) -> Scenario:
    """Builder from a description file.

    ``.xml``/``.modelnet`` parse as Modelnet XML, ``.scn`` as the
    schema-validated declarative document
    (:func:`repro.scenario.dsl.load_scn`), ``.py`` files must expose a
    module-level ``SCENARIO`` (a :class:`Scenario` or a zero-argument
    callable returning one — how the repository's examples stay
    validatable), and anything else parses as listing-style text.
    """
    if path.endswith(".py"):
        return _scenario_from_python(path)
    if path.endswith(".scn"):
        from repro.scenario.dsl import load_scn
        return load_scn(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".xml", ".modelnet")):
        return scenario_from_xml(text)
    return scenario_from_text(text)


def _scenario_from_python(path: str) -> Scenario:
    spec = importlib.util.spec_from_file_location("_scenario_module", path)
    if spec is None or spec.loader is None:
        raise TopologyError(f"cannot import scenario module {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    candidate = getattr(module, "SCENARIO", None)
    if candidate is None:
        raise TopologyError(
            f"{path!r} defines no SCENARIO (a Scenario or a callable)")
    if callable(candidate) and not isinstance(candidate, Scenario):
        candidate = candidate()
    if not isinstance(candidate, Scenario):
        raise TopologyError(
            f"{path!r}: SCENARIO is {type(candidate).__name__}, "
            "expected repro.scenario.Scenario")
    return candidate


# --------------------------------------------------------------------------
# Adoption — wrap an already-built Topology in a builder.
# --------------------------------------------------------------------------
def scenario_from_topology(topology: Topology,
                           schedule: Optional[EventSchedule] = None
                           ) -> Scenario:
    """Builder re-declaring an existing topology spec-by-spec.

    Mirrored link pairs whose properties differ at most in bandwidth fold
    into one bidirectional declaration (``up``/``down``); anything else is
    kept as unidirectional declarations, so arbitrary asymmetric
    topologies survive the round trip exactly.
    """
    builder = Scenario.build(topology.name)
    for service in topology.services.values():
        builder.service(service.name, image=service.image,
                        replicas=service.replicas, command=service.command,
                        tags=dict(service.tags))
    for bridge in topology.bridges.values():
        builder.bridge(bridge.name)

    handled: set = set()
    for link in topology.links():
        if link.key in handled:
            continue
        handled.add(link.key)
        forward = link.properties
        reverse = None
        try:
            reverse = topology.get_link(link.destination, link.source)
        except TopologyError:
            pass
        if reverse is not None and reverse.key not in handled and \
                _mergeable(forward, reverse.properties):
            handled.add(reverse.key)
            builder.link(link.source, link.destination,
                         latency=forward.latency, up=forward.bandwidth,
                         down=reverse.properties.bandwidth,
                         jitter=forward.jitter, loss=forward.loss,
                         jitter_distribution=forward.jitter_distribution,
                         bidirectional=True, network=link.network)
        else:
            builder.link(link.source, link.destination,
                         latency=forward.latency, up=forward.bandwidth,
                         jitter=forward.jitter, loss=forward.loss,
                         jitter_distribution=forward.jitter_distribution,
                         bidirectional=False, network=link.network)
    for event in (schedule or []):
        builder.event(event)
    return builder


def _mergeable(forward, backward) -> bool:
    """Reverse properties representable as a ``down`` bandwidth override?"""
    return (forward.latency == backward.latency
            and forward.jitter == backward.jitter
            and forward.loss == backward.loss
            and forward.jitter_distribution == backward.jitter_distribution)
