"""Scenario linting: aggregated, pointer-attached diagnostics.

``lint_file`` accepts any scenario front-end format — ``.scn``
documents, the listing-style text language, Modelnet XML, ``.py``
modules — and returns every problem as a
:class:`~repro.scenario.dsl.schema.Diagnostic`:

* ``.scn`` files are schema-validated first (every error, with a
  JSON-path pointer such as ``links[2].up``), then whole-program
  compiled;
* other formats are loaded and compiled, with
  :class:`~repro.topology.model.TopologyError` /
  :class:`~repro.topology.thunderstorm.ThunderstormError` /
  :class:`~repro.units.UnitError` surfaced as diagnostics instead of
  tracebacks (workloads naming unknown containers get one JSON-path
  diagnostic each, e.g. ``workloads[0].destination``);
* scenarios that compile are additionally checked for semantic warnings
  (isolated nodes, events scheduled past the configured duration) by
  round-tripping through the ``.scn`` schema — the same warning logic
  for every front-end.

``repro scenario lint`` prints these to stderr and exits 1 on any
error, 0 when only warnings (or nothing) were found.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.scenario.builder import WorkloadEndpointError
from repro.scenario.dsl.format import ScnError, _parse_scn_text, \
    scenario_from_scn, scn_document
from repro.scenario.dsl.schema import ERROR, WARNING, Diagnostic, \
    validate_document
from repro.topology.model import TopologyError
from repro.units import UnitError

__all__ = ["lint_file", "lint_scenario"]


def lint_scenario(builder) -> List[Diagnostic]:
    """Diagnostics for an in-memory :class:`Scenario` builder."""
    try:
        compiled = builder.compile()
    except (TopologyError, UnitError) as error:
        return _compile_errors(error)
    return _compiled_warnings(compiled)


def _compile_errors(error: Exception) -> List[Diagnostic]:
    """One diagnostic per bad workload endpoint, else one for the error."""
    if isinstance(error, WorkloadEndpointError):
        return [Diagnostic(ERROR, path, f"workload endpoint {name!r} names "
                                        "no declared or joined container")
                for path, name in error.endpoints]
    return [Diagnostic(ERROR, "compile", str(error))]


def lint_file(path: str, *, script: Optional[str] = None) -> List[Diagnostic]:
    """Every problem in a scenario file, aggregated.

    ``script`` optionally names a THUNDERSTORM script to attach before
    compiling (mirroring ``repro validate --scenario``).
    """
    if str(path).endswith(".scn"):
        return _lint_scn(path, script)
    return _lint_front_end(path, script)


def _lint_scn(path: str, script: Optional[str]) -> List[Diagnostic]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        return [Diagnostic(ERROR, "", str(error))]
    try:
        document = _parse_scn_text(text, str(path))
    except ScnError as error:
        return [Diagnostic(ERROR, "", str(error))]

    diagnostics = validate_document(document)
    if any(item.severity == ERROR for item in diagnostics):
        return diagnostics

    builder = scenario_from_scn(document, validate=False)
    if script:
        problem = _attach_script(builder, script)
        if problem:
            return diagnostics + [problem]
    try:
        builder.compile()
    except (TopologyError, UnitError) as error:
        diagnostics.extend(_compile_errors(error))
    return diagnostics


def _lint_front_end(path: str, script: Optional[str]) -> List[Diagnostic]:
    from repro.scenario.builder import Scenario
    from repro.topology.thunderstorm import ThunderstormError
    try:
        builder = Scenario.from_file(path)
    except (OSError, json.JSONDecodeError) as error:
        return [Diagnostic(ERROR, "", str(error))]
    except (TopologyError, ThunderstormError, UnitError) as error:
        return [Diagnostic(ERROR, "load", str(error))]
    except SyntaxError as error:
        return [Diagnostic(ERROR, f"line {error.lineno}", error.msg or
                           "syntax error")]
    if script:
        problem = _attach_script(builder, script)
        if problem:
            return [problem]
    try:
        compiled = builder.compile()
    except (TopologyError, ThunderstormError, UnitError) as error:
        return _compile_errors(error)
    return _compiled_warnings(compiled)


def _attach_script(builder, script: str) -> Optional[Diagnostic]:
    try:
        with open(script, "r", encoding="utf-8") as handle:
            builder.script(handle.read())
    except OSError as error:
        return Diagnostic(ERROR, "", str(error))
    return None


def _compiled_warnings(compiled) -> List[Diagnostic]:
    """Semantic warnings for a compiled scenario, via the .scn schema.

    Dumping our own compiled form must always produce a schema-clean
    document — any *error* the validator reports here is an internal
    inconsistency and is surfaced loudly rather than swallowed.  Custom
    workloads cannot dump; those scenarios just skip the warning pass.
    """
    try:
        document = scn_document(compiled)
    except ScnError:
        return []
    out: List[Diagnostic] = []
    for item in validate_document(document):
        if item.severity == WARNING:
            out.append(item)
        else:
            out.append(Diagnostic(ERROR, item.path,
                                  f"internal: canonical dump failed "
                                  f"validation: {item.message}"))
    return out
