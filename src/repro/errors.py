"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``ValueError`` raised by numpy, ...).

Errors can carry a :class:`~repro.diagnostics.report.DiagnosticsReport`
(attached via :meth:`ReproError.attach_diagnostics`) so callers can
introspect *why* an analysis failed — preflight findings, fallback
attempts, condition numbers — without re-running it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .diagnostics.report import DiagnosticsReport


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package.

    Attributes
    ----------
    diagnostics:
        Optional :class:`~repro.diagnostics.report.DiagnosticsReport`
        describing the numerical context of the failure. ``None`` unless
        the raising engine attached one.
    """

    #: Attached diagnostics report (None unless the raiser attached one).
    diagnostics: "DiagnosticsReport | None" = None

    def attach_diagnostics(self, report: "DiagnosticsReport") -> "ReproError":
        """Attach a diagnostics report to this error; returns ``self``.

        Designed for the ``raise err.attach_diagnostics(report)`` idiom so
        engines can enrich an exception without changing its type.
        """
        self.diagnostics = report
        return self


class CircuitError(ReproError):
    """A netlist is malformed or references unknown nodes/components."""


class TopologyError(CircuitError):
    """The circuit topology is ill-posed for analysis.

    Examples: a node with no DC path and no capacitor (floating node), a
    loop of ideal voltage branches, or a capacitor cutset that leaves the
    resistive MNA singular in some clock phase.
    """


class SingularMatrixError(ReproError):
    """A matrix that must be invertible for the analysis is singular."""


class ConvergenceError(ReproError):
    """An iterative method failed to converge.

    Carries the iteration count, the final residual, and (for
    per-frequency PSD computations) the analysis frequency when
    available so failures can be diagnosed without re-running.
    """

    def __init__(self, message: str, iterations: "int | None" = None,
                 residual: "float | None" = None,
                 frequency: "float | None" = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.frequency = frequency


class StabilityError(ReproError):
    """The periodic system is not asymptotically stable.

    Periodic steady-state noise analysis requires all Floquet multipliers
    strictly inside the unit circle (oscillators are handled by the
    dedicated extension engines instead). When available the offending
    ``multipliers`` (sorted by descending modulus) and the
    ``spectral_radius`` are carried on the exception.
    """

    def __init__(self, message: str,
                 multipliers: "Sequence[complex] | None" = None,
                 spectral_radius: "float | None" = None) -> None:
        super().__init__(message)
        self.multipliers = multipliers
        self.spectral_radius = spectral_radius


class ScheduleError(ReproError):
    """A clock phase schedule is inconsistent (gaps, overlaps, bad period)."""


class BudgetExceededError(ReproError):
    """A sweep/solve exceeded its wall-clock or work budget.

    Raised (or recorded as a per-frequency failure, depending on the
    engine's ``on_failure`` mode) when a :class:`~repro.diagnostics.budget.
    SweepBudget` runs out before the computation finishes.
    """

    def __init__(self, message: str,
                 elapsed_seconds: "float | None" = None,
                 spent_periods: "int | None" = None) -> None:
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.spent_periods = spent_periods


class UnitsError(ReproError):
    """An engineering-notation quantity could not be parsed."""


class NoiseModelError(ReproError):
    """A noise source specification is inconsistent or unsupported."""


class UnexpectedOptionError(ReproError, TypeError):
    """A keyword option the selected solver does not take.

    Also a :class:`TypeError`, like any unexpected keyword argument, so
    a stray option fails the same way whichever solver receives it.
    """
