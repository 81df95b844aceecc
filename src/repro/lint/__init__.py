"""Numerics-aware static analysis for the ``repro`` codebase.

``python -m repro.lint`` runs a two-pass AST rule engine whose rules
encode *domain* invariants of the noise engines — things a generic
linter cannot know.  Pass 1 parses the tree once and builds a
:class:`~repro.lint.project.ProjectIndex` (import graph, symbol table,
resolvable call edges); pass 2 runs the per-file rules against each
module and the cross-module contract rules against the index:

========  ==============================================================
SCN000    file parses (unparseable files report and never abort a run)
SCN001    no raw ``np.linalg.solve/inv/lstsq/eig*`` outside
          :mod:`repro.linalg` — use the condition-checked wrappers in
          :mod:`repro.linalg.checked`
SCN002    no broad ``except Exception`` / bare ``except`` in library
          code — catch the specific :mod:`repro.errors` types
SCN003    no magic float tolerances — thresholds live, named and
          documented, in :mod:`repro.tolerances` (unit prefix tables
          and physical constants live in :mod:`repro.units`)
SCN004    no ``print`` in library code — use module loggers
SCN005    public array-returning APIs declare their dtype contract via
          a :mod:`repro.typing` alias (shape goes in the docstring)
SCN006    callables/payloads crossing the process-pool boundary are
          picklable module-level defs (no lambdas, nested functions,
          closure-captured locks or generators)
SCN007    functions accepting ``recorder=`` forward it on every call
          edge into other instrumented functions
SCN008    frequency/segment loops in :mod:`repro.mft` carry a budget
          check (or an explicit reasoned suppression)
SCN009    PSD-returning APIs declare V²/Hz + sidedness; PSD and
          voltage/current quantities never mix without conversion
SCN010    no wall-clock/unseeded-RNG reads outside the modules that
          own nondeterminism (deterministic replay hygiene)
========  ==============================================================

Findings can be suppressed inline with ``# scn: ignore[SCN003]`` (or a
bare ``# scn: ignore`` for every rule; SCN008 additionally requires a
``- reason``) and grandfathered through a committed baseline file
(:mod:`repro.lint.baseline`) so the CI gate lands before the last
violation is burned down.  SCN006–SCN010 are held at a **zero**
baseline.
"""

from .baseline import Baseline
from .contracts import PROJECT_RULES, ProjectRule
from .engine import Finding, lint_paths, lint_source, parse_paths
from .project import ProjectIndex
from .rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "Baseline",
    "Finding",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "lint_paths",
    "lint_source",
    "parse_paths",
]
