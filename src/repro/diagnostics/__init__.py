"""Solver guardrails: preflight validation, budgets, fallback chains.

The MFT engine replaces thousands of transient clock cycles with one
periodic fixed-point solve — a solve that is near-singular whenever a
Floquet multiplier of the (frequency-shifted) system approaches the unit
circle. This package treats that fragility as a first-class, recoverable
outcome rather than an abort:

* :mod:`repro.diagnostics.report` — severity-tagged findings attached to
  every ``PsdResult.info["diagnostics"]`` and to raised errors;
* :mod:`repro.diagnostics.preflight` — stability margin, conditioning,
  schedule and NaN/Inf checks run before any PSD computation;
* :mod:`repro.diagnostics.fallback` — the bounded graceful-degradation
  chain (direct solve → regularized least squares → brute-force
  transient) with per-attempt records;
* :mod:`repro.diagnostics.budget` — wall-clock / clock-period budgets so
  a pathological frequency cannot hang a sweep.
"""

from .report import (
    DiagnosticsReport,
    Finding,
    FrequencyFailure,
    Severity,
)
from .preflight import preflight_report, require_preflight
from .fallback import (
    AttemptRecord,
    FallbackExhausted,
    FallbackPolicy,
    run_fallback_chain,
)
from .budget import SweepBudget, as_budget

__all__ = [
    "Severity",
    "Finding",
    "FrequencyFailure",
    "DiagnosticsReport",
    "preflight_report",
    "require_preflight",
    "FallbackPolicy",
    "AttemptRecord",
    "FallbackExhausted",
    "run_fallback_chain",
    "SweepBudget",
    "as_budget",
]
