"""The declarative scenario DSL subsystem.

Four parts built on the `.scn` canonical format (see docs/scenarios.md):

* :mod:`~repro.scenario.dsl.format` — versioned, schema-validated
  ``.scn`` files with a byte-identical round-trip guarantee;
* :mod:`~repro.scenario.dsl.lint` / :mod:`~repro.scenario.dsl.diff` —
  reviewable scenarios: pointer-attached diagnostics and semantic diffs
  over the compiled form;
* :mod:`~repro.scenario.dsl.fuzz` — a seeded property-based generator
  of valid random scenarios;
* :mod:`~repro.scenario.dsl.differential` — run one scenario across
  several backends and report metric/path-table divergences as
  structured findings.
"""

from repro.scenario.dsl.diff import DiffEntry, ScenarioDiff, diff_scenarios
from repro.scenario.dsl.differential import (
    DifferentialReport,
    Divergence,
    project_common,
    run_differential,
)
from repro.scenario.dsl.format import (
    ScnError,
    dump_scn,
    dumps_scn,
    load_scn,
    loads_scn,
    scenario_from_scn,
    scn_document,
)
from repro.scenario.dsl.fuzz import (
    FuzzBudget,
    fuzz_campaign,
    fuzz_corpus,
    fuzz_point,
    generate_scenario,
    rejects_unknown_endpoint,
)
from repro.scenario.dsl.lint import lint_file, lint_scenario
from repro.scenario.dsl.schema import SCN_VERSION, Diagnostic, validate_document

__all__ = [
    "SCN_VERSION", "Diagnostic", "validate_document",
    "ScnError", "scn_document", "dumps_scn", "dump_scn",
    "loads_scn", "load_scn", "scenario_from_scn",
    "lint_file", "lint_scenario",
    "DiffEntry", "ScenarioDiff", "diff_scenarios",
    "FuzzBudget", "generate_scenario", "fuzz_corpus", "fuzz_point",
    "fuzz_campaign", "rejects_unknown_endpoint",
    "Divergence", "DifferentialReport", "project_common",
    "run_differential",
]
