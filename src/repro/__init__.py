"""scnoise — noise spectral density of switched-capacitor circuits.

Reproduction of *"Computation of noise spectral density in switched
capacitor circuits using the mixed-frequency-time technique"* (DAC 2003).
See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.

Quick tour
----------
>>> import numpy as np
>>> from repro import sc_lowpass_system, NoiseAnalysis
>>> analysis = NoiseAnalysis(sc_lowpass_system())
>>> spectrum = analysis.psd(np.linspace(100.0, 12e3, 40))

Package layout:

* :mod:`repro.circuit` / :mod:`repro.circuits` — netlists and the
  paper's circuits,
* :mod:`repro.lptv` — switched linear-system containers,
* :mod:`repro.noise` — covariance / ESD engines (baseline),
* :mod:`repro.mft` — the mixed-frequency-time steady-state engine,
* :mod:`repro.baselines` — independent comparator methods,
* :mod:`repro.translinear`, :mod:`repro.oscillator` — extensions,
* :mod:`repro.metrics` — figures of merit and per-source attribution,
* :mod:`repro.analysis`, :mod:`repro.io` — model-level analysis and
  reporting.
"""

from .errors import (
    BudgetExceededError,
    CircuitError,
    ConvergenceError,
    NoiseModelError,
    ReproError,
    ScheduleError,
    SingularMatrixError,
    StabilityError,
    TopologyError,
    UnexpectedOptionError,
    UnitsError,
)
from .logconfig import configure_logging
from .diagnostics import (
    DiagnosticsReport,
    FallbackPolicy,
    Severity,
    SweepBudget,
    preflight_report,
)
from .analysis import NoiseAnalysis, SpectrumComparison, compare_spectra
from .circuit import ClockSchedule, Netlist, build_lptv_system, parse_netlist
from .circuits import (
    SampleHoldParams,
    ScBandpassParams,
    ScIntegratorParams,
    ScLowpassParams,
    SwitchedRcParams,
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from .lptv import Phase, PiecewiseLTISystem, SampledLPTVSystem
from .mft import (
    MftNoiseAnalyzer,
    SweepContext,
    sweep_context_for,
)
from .metrics import ContributionBudget, MetricResult
from .noise import PsdResult, brute_force_psd, periodic_covariance
from .obs import Recorder

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError", "CircuitError", "TopologyError", "SingularMatrixError",
    "ConvergenceError", "StabilityError", "ScheduleError", "UnitsError",
    "NoiseModelError", "BudgetExceededError", "UnexpectedOptionError",
    # diagnostics & guardrails
    "configure_logging", "DiagnosticsReport", "Severity", "SweepBudget",
    "FallbackPolicy", "preflight_report",
    # analysis
    "NoiseAnalysis", "compare_spectra", "SpectrumComparison",
    # circuit substrate
    "Netlist", "ClockSchedule", "build_lptv_system", "parse_netlist",
    # circuit library
    "SwitchedRcParams", "switched_rc_system",
    "ScLowpassParams", "sc_lowpass_system",
    "ScBandpassParams", "sc_bandpass_system",
    "ScIntegratorParams", "sc_integrator_system",
    "SampleHoldParams", "sample_hold_system",
    # systems and engines
    "Phase", "PiecewiseLTISystem", "SampledLPTVSystem",
    "MftNoiseAnalyzer",
    "SweepContext", "sweep_context_for",
    "PsdResult", "brute_force_psd", "periodic_covariance",
    # metrics and attribution
    "ContributionBudget", "MetricResult",
    # observability
    "Recorder",
]
