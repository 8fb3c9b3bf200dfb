"""The `.scn` document schema: versioned, validated, pointer-diagnosed.

A ``.scn`` file is the canonical on-disk form of a scenario — a plain
JSON/YAML-compatible dict covering everything a
:class:`~repro.scenario.builder.Scenario` declares: topology (services,
bridges, links), dynamic events, THUNDERSTORM scripts, workloads and
deployment settings.  This module owns the *shape* of that document:
:func:`validate_document` walks a candidate dict and returns every
problem as a :class:`Diagnostic` with a JSON-path-style pointer
(``links[2].up``), so ``repro scenario lint`` can report all of them at
once instead of failing on the first.

Value coercion (``"10ms"`` → seconds, ``"100Mbps"`` → bits/s,
``"unlimited"`` → inf) lives here too, shared by the validator and the
loader in :mod:`repro.scenario.dsl.format` so the two can never drift.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.units import UnitError, parse_rate, parse_time

__all__ = ["SCN_VERSION", "Diagnostic", "validate_document",
           "coerce_time", "coerce_rate", "coerce_loss"]

#: Version stamp every document carries; bumped on incompatible changes.
SCN_VERSION = 1

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding: severity, a pointer into the document, a message."""

    severity: str          # "error" | "warning"
    path: str              # JSON-path-ish pointer, e.g. "links[2].up"
    message: str

    def __str__(self) -> str:
        where = self.path or "document"
        return f"{self.severity}: {where}: {self.message}"


# --------------------------------------------------------------------------
# Value coercion (shared with the loader).
# --------------------------------------------------------------------------
def coerce_time(value) -> float:
    """Seconds from a number (already seconds) or a ``"10ms"`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected seconds or a time string, got {value!r}")
    seconds = parse_time(value)
    if seconds < 0:
        raise ValueError(f"negative time: {value!r}")
    return seconds


def coerce_rate(value) -> float:
    """Bits/s from a number, a ``"100Mbps"`` string, or ``"unlimited"``."""
    if isinstance(value, str) and value.strip().lower() in ("unlimited",
                                                            "inf"):
        return float("inf")
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected bits/s or a rate string, got {value!r}")
    rate = parse_rate(value)
    if rate <= 0:
        raise ValueError(f"non-positive rate: {value!r}")
    return rate


def coerce_loss(value) -> float:
    """A loss probability from a number in [0, 1] or a ``"2%"`` string."""
    if isinstance(value, str):
        raw = value.strip()
        loss = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a loss probability, got {value!r}")
    else:
        loss = float(value)
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"loss outside [0, 1]: {value!r}")
    return loss


# --------------------------------------------------------------------------
# Field validators: each returns an error message or None.
# --------------------------------------------------------------------------
def _is_str(value) -> Optional[str]:
    return None if isinstance(value, str) else f"expected a string, got " \
        f"{type(value).__name__}"


def _is_bool(value) -> Optional[str]:
    return None if isinstance(value, bool) else f"expected a boolean, got " \
        f"{type(value).__name__}"


def _is_int(minimum: int) -> Callable:
    def check(value) -> Optional[str]:
        if isinstance(value, bool) or not isinstance(value, int):
            return f"expected an integer, got {type(value).__name__}"
        if value < minimum:
            return f"expected an integer >= {minimum}, got {value}"
        return None
    return check


def _is_number(value) -> Optional[str]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"expected a number, got {type(value).__name__}"
    return None


def _coerces(coercer: Callable) -> Callable:
    def check(value) -> Optional[str]:
        try:
            coercer(value)
        except (ValueError, UnitError) as error:
            return str(error)
        return None
    return check


def _choice(*allowed: str) -> Callable:
    def check(value) -> Optional[str]:
        if value not in allowed:
            return f"expected one of {', '.join(allowed)}, got {value!r}"
        return None
    return check


def _is_str_map(value) -> Optional[str]:
    if not isinstance(value, dict):
        return f"expected a mapping, got {type(value).__name__}"
    bad = [key for key, item in value.items()
           if not isinstance(key, str) or not isinstance(item, str)]
    if bad:
        return "expected string keys and values"
    return None


def _is_str_list(value) -> Optional[str]:
    if not isinstance(value, list):
        return f"expected a list, got {type(value).__name__}"
    if any(not isinstance(item, str) for item in value):
        return "expected a list of strings"
    return None


_TIME = _coerces(coerce_time)
_RATE = _coerces(coerce_rate)
_LOSS = _coerces(coerce_loss)

# Per-section field tables: name -> validator; None marks required fields.
_SERVICE_FIELDS: Dict[str, Callable] = {
    "name": _is_str, "image": _is_str, "replicas": _is_int(1),
    "command": _is_str, "tags": _is_str_map,
}
_SERVICE_REQUIRED = ("name",)

_LINK_FIELDS: Dict[str, Callable] = {
    "orig": _is_str, "dest": _is_str, "latency": _TIME, "up": _RATE,
    "down": _RATE, "bandwidth": _RATE, "jitter": _TIME, "loss": _LOSS,
    "jitter_distribution": _choice("normal", "uniform"),
    "bidirectional": _is_bool, "network": _is_str,
}
_LINK_REQUIRED = ("orig", "dest")

_PROPERTY_FIELDS: Dict[str, Callable] = {
    "latency": _TIME, "bandwidth": _RATE, "jitter": _TIME, "loss": _LOSS,
    "jitter_distribution": _choice("normal", "uniform"),
}

_CHANGE_FIELDS: Dict[str, Callable] = {
    "latency": _TIME, "bandwidth": _RATE, "jitter": _TIME, "loss": _LOSS,
}

_EVENT_ACTIONS = ("set_link", "join_link", "leave_link", "join", "leave")

_WORKLOAD_FIELDS: Dict[str, Tuple[Dict[str, Callable], Tuple[str, ...]]] = {
    "flow": ({"source": _is_str, "destination": _is_str, "demand": _RATE,
              "protocol": _choice("tcp", "udp"),
              "congestion_control": _is_str, "start": _TIME, "stop": _TIME,
              "key": _is_str},
             ("source", "destination")),
    "iperf": ({"source": _is_str, "destination": _is_str,
               "duration": _TIME, "demand": _RATE,
               "protocol": _choice("tcp", "udp"),
               "congestion_control": _is_str, "warmup": _TIME,
               "start": _TIME, "key": _is_str},
              ("source", "destination")),
    "ping": ({"source": _is_str, "destination": _is_str,
              "count": _is_int(1), "interval": _TIME, "start": _TIME,
              "key": _is_str},
             ("source", "destination")),
    "http": ({"source": _is_str, "server": _is_str,
              "connections": _is_int(1), "start": _TIME, "stop": _TIME,
              "key": _is_str},
             ("source", "server")),
    "curl": ({"sources": _is_str_list, "server": _is_str, "key": _is_str},
             ("sources", "server")),
}

_TOP_LEVEL = ("scn", "name", "services", "bridges", "links", "events",
              "scripts", "workloads", "deploy")


def _deploy_fields() -> Dict[str, Callable]:
    """deploy section validators: machines/seed/duration/placement plus
    every :class:`~repro.core.engine.EngineConfig` tunable, typed."""
    from repro.core.engine import EngineConfig
    fields: Dict[str, Callable] = {
        "duration": _TIME, "placement": _is_str_map,
    }
    for field in dataclasses.fields(EngineConfig):
        if field.type == "bool" or isinstance(field.default, bool):
            fields[field.name] = _is_bool
        elif field.type == "int" or isinstance(field.default, int):
            fields[field.name] = _is_int(0)
        else:
            fields[field.name] = _is_number
    fields["machines"] = _is_int(1)
    return fields


# --------------------------------------------------------------------------
# The walker.
# --------------------------------------------------------------------------
def _check_fields(spec: Dict, fields: Dict[str, Callable],
                  required: Sequence[str], path: str,
                  out: List[Diagnostic]) -> None:
    for name in required:
        if name not in spec:
            out.append(Diagnostic(ERROR, path, f"missing required key "
                                               f"{name!r}"))
    for name, value in spec.items():
        if name == "kind":
            continue
        checker = fields.get(name)
        if checker is None:
            known = ", ".join(sorted(fields))
            out.append(Diagnostic(ERROR, f"{path}.{name}",
                                  f"unknown key (expected one of: {known})"))
            continue
        if value is None and name in ("command", "stop"):
            continue
        problem = checker(value)
        if problem:
            out.append(Diagnostic(ERROR, f"{path}.{name}", problem))


def _section_list(document: Dict, name: str,
                  out: List[Diagnostic]) -> List:
    value = document.get(name, [])
    if not isinstance(value, list):
        out.append(Diagnostic(ERROR, name, f"expected a list, got "
                                           f"{type(value).__name__}"))
        return []
    return value


def validate_document(document) -> List[Diagnostic]:
    """Every problem in a candidate ``.scn`` document, pointer-attached.

    Errors make the document unloadable; warnings (isolated nodes, events
    scheduled past the configured duration, ...) flag suspicious but
    valid scenarios.  An empty list means the document is clean.
    """
    out: List[Diagnostic] = []
    if not isinstance(document, dict):
        return [Diagnostic(ERROR, "", f"a .scn document is a mapping, got "
                                      f"{type(document).__name__}")]

    version = document.get("scn")
    if version is None:
        out.append(Diagnostic(ERROR, "scn",
                              f"missing version stamp (expected scn: "
                              f"{SCN_VERSION})"))
    elif version != SCN_VERSION:
        out.append(Diagnostic(ERROR, "scn",
                              f"unsupported version {version!r} (this "
                              f"toolchain reads scn: {SCN_VERSION})"))
    for key in document:
        if key not in _TOP_LEVEL:
            out.append(Diagnostic(ERROR, key,
                                  "unknown top-level key (expected one of: "
                                  + ", ".join(_TOP_LEVEL) + ")"))
    if "name" in document and _is_str(document["name"]):
        out.append(Diagnostic(ERROR, "name", "expected a string"))

    # ----------------------------------------------------------- topology
    services = _section_list(document, "services", out)
    service_names: List[str] = []
    containers: set = set()
    for index, spec in enumerate(services):
        path = f"services[{index}]"
        if not isinstance(spec, dict):
            out.append(Diagnostic(ERROR, path, "expected a mapping"))
            continue
        _check_fields(spec, _SERVICE_FIELDS, _SERVICE_REQUIRED, path, out)
        name = spec.get("name")
        if isinstance(name, str):
            service_names.append(name)
            replicas = spec.get("replicas", 1)
            if isinstance(replicas, int) and not isinstance(replicas, bool) \
                    and replicas > 1:
                containers.update(f"{name}.{i}" for i in range(replicas))
            else:
                containers.add(name)

    bridges = _section_list(document, "bridges", out)
    bridge_names: List[str] = []
    for index, name in enumerate(bridges):
        if not isinstance(name, str):
            out.append(Diagnostic(ERROR, f"bridges[{index}]",
                                  "expected a bridge name string"))
            continue
        bridge_names.append(name)

    declared = set(service_names) | set(bridge_names)
    linked: set = set()

    links = _section_list(document, "links", out)
    for index, spec in enumerate(links):
        path = f"links[{index}]"
        if not isinstance(spec, dict):
            out.append(Diagnostic(ERROR, path, "expected a mapping"))
            continue
        _check_fields(spec, _LINK_FIELDS, _LINK_REQUIRED, path, out)
        for end in ("orig", "dest"):
            node = spec.get(end)
            if isinstance(node, str):
                linked.add(node)
                if node not in declared:
                    out.append(Diagnostic(
                        ERROR, f"{path}.{end}",
                        f"undeclared node {node!r} (declared: "
                        + (", ".join(sorted(declared)) or "none") + ")"))

    # ------------------------------------------------------------- events
    events = _section_list(document, "events", out)
    joinable = set(declared)
    for spec in events:
        if isinstance(spec, dict) and spec.get("action") == "join" \
                and isinstance(spec.get("name"), str):
            joinable.add(spec["name"])
    for index, spec in enumerate(events):
        path = f"events[{index}]"
        if not isinstance(spec, dict):
            out.append(Diagnostic(ERROR, path, "expected a mapping"))
            continue
        _validate_event(spec, path, joinable, linked, out)
    # A node joined without a declaration is a fresh single-replica service.
    containers |= joinable - declared

    scripts = _section_list(document, "scripts", out)
    for index, text in enumerate(scripts):
        if not isinstance(text, str):
            out.append(Diagnostic(ERROR, f"scripts[{index}]",
                                  "expected a THUNDERSTORM script string"))

    # ---------------------------------------------------------- workloads
    workloads = _section_list(document, "workloads", out)
    keys_seen: Dict[str, int] = {}
    for index, spec in enumerate(workloads):
        path = f"workloads[{index}]"
        if not isinstance(spec, dict):
            out.append(Diagnostic(ERROR, path, "expected a mapping"))
            continue
        kind = spec.get("kind")
        if kind not in _WORKLOAD_FIELDS:
            out.append(Diagnostic(
                ERROR, f"{path}.kind",
                f"unknown workload kind {kind!r} (expected one of: "
                + ", ".join(sorted(_WORKLOAD_FIELDS)) + ")"))
            continue
        fields, required = _WORKLOAD_FIELDS[kind]
        _check_fields(spec, fields, required, path, out)
        endpoints = [(end, spec.get(end)) for end in
                     ("source", "destination", "server")]
        if isinstance(spec.get("sources"), list):
            endpoints += [(f"sources[{position}]", node) for position, node
                          in enumerate(spec["sources"])]
        for end, node in endpoints:
            if isinstance(node, str) and node not in containers:
                out.append(Diagnostic(
                    ERROR, f"{path}.{end}", f"workload endpoint {node!r} "
                    "names no declared or joined container"))
        key = spec.get("key")
        if isinstance(key, str):
            keys_seen[key] = keys_seen.get(key, 0) + 1
    for key, count in sorted(keys_seen.items()):
        if count > 1:
            out.append(Diagnostic(ERROR, "workloads",
                                  f"duplicate workload key {key!r} "
                                  f"({count} declarations)"))

    # ------------------------------------------------------------- deploy
    deploy = document.get("deploy", {})
    duration = None
    if not isinstance(deploy, dict):
        out.append(Diagnostic(ERROR, "deploy", "expected a mapping"))
    else:
        _check_fields(deploy, _deploy_fields(), (), "deploy", out)
        if "duration" in deploy and _TIME(deploy["duration"]) is None:
            try:
                duration = coerce_time(deploy["duration"])
            except (ValueError, UnitError):
                duration = None

    # ----------------------------------------------------------- warnings
    for name in sorted(declared):
        if name not in linked and name not in _event_touched(events):
            out.append(Diagnostic(WARNING, _declaration_path(
                name, service_names, bridge_names),
                f"node {name!r} is declared but never linked"))
    if duration is not None:
        for index, spec in enumerate(events):
            if not isinstance(spec, dict):
                continue
            try:
                time = coerce_time(spec.get("time", 0.0))
            except (ValueError, UnitError):
                continue
            if time > duration:
                out.append(Diagnostic(
                    WARNING, f"events[{index}].time",
                    f"event at t={time:g}s never fires within the "
                    f"configured duration of {duration:g}s"))
    return out


def _validate_event(spec: Dict, path: str, known: set, linked: set,
                    out: List[Diagnostic]) -> None:
    if "time" not in spec:
        out.append(Diagnostic(ERROR, path, "missing required key 'time'"))
    elif _TIME(spec["time"]):
        out.append(Diagnostic(ERROR, f"{path}.time", _TIME(spec["time"])))
    action = spec.get("action")
    if action not in _EVENT_ACTIONS:
        out.append(Diagnostic(
            ERROR, f"{path}.action",
            f"unknown action {action!r} (expected one of: "
            + ", ".join(_EVENT_ACTIONS) + ")"))
        return
    node_event = action in ("join", "leave")
    allowed = {"time": _TIME, "action": _choice(*_EVENT_ACTIONS)}
    if node_event:
        allowed["name"] = _is_str
        required = ("name",)
    else:
        allowed.update({"orig": _is_str, "dest": _is_str,
                        "bidirectional": _is_bool})
        required = ("orig", "dest")
        if action == "join_link":
            allowed["properties"] = lambda value: (
                None if isinstance(value, dict) else "expected a mapping")
        if action == "set_link":
            allowed["changes"] = lambda value: (
                None if isinstance(value, dict) else "expected a mapping")
            allowed["properties"] = allowed.get(
                "properties",
                lambda value: None if isinstance(value, dict)
                else "expected a mapping")
    _check_fields(spec, allowed, required, path, out)

    for field, table in (("properties", _PROPERTY_FIELDS),
                         ("changes", _CHANGE_FIELDS)):
        sub = spec.get(field)
        if isinstance(sub, dict):
            _check_fields(sub, table, (), f"{path}.{field}", out)
    if action == "set_link" and not spec.get("changes") \
            and not spec.get("properties"):
        out.append(Diagnostic(ERROR, path,
                              "set_link event changes nothing (give "
                              "'changes' or 'properties')"))
    for end in ("orig", "dest", "name"):
        node = spec.get(end)
        if isinstance(node, str) and node not in known:
            out.append(Diagnostic(
                ERROR, f"{path}.{end}",
                f"event references undeclared node {node!r}"))


def _event_touched(events: List) -> set:
    touched = set()
    for spec in events:
        if not isinstance(spec, dict):
            continue
        for end in ("orig", "dest", "name"):
            value = spec.get(end)
            if isinstance(value, str):
                touched.add(value)
    return touched


def _declaration_path(name: str, services: List[str],
                      bridges: List[str]) -> str:
    if name in services:
        return f"services[{services.index(name)}]"
    if name in bridges:
        return f"bridges[{bridges.index(name)}]"
    return "services"
