"""Graceful-degradation solve chain for per-frequency PSD computations.

The MFT fixed point is one linear solve — fast, but fragile when a
Floquet multiplier of the frequency-shifted system approaches 1. Instead
of aborting the sweep, the engines run a bounded chain of increasingly
conservative strategies:

1. the direct periodic solve (rejected when ``cond(I − M)`` exceeds the
   policy threshold),
2. a Tikhonov-regularized least-squares fixed point,
3. the brute-force transient engine for that one frequency.

There is no refined-grid stage: ``cond(I − M)`` belongs to the exact
period product of the monodromy, not to the quadrature grid, so a
denser grid cannot lift the condition that triggers the chain.

Every attempt is recorded — strategy, trigger, wall-clock cost, outcome —
both as an :class:`AttemptRecord` and as a finding in the sweep's
:class:`~repro.diagnostics.report.DiagnosticsReport`, so a "succeeded via
fallback" result is distinguishable from a clean one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from ..errors import ReproError
from ..tolerances import DIRECT_SOLVE_COND_LIMIT, FIXED_POINT_RIDGE
from .report import Severity

logger = logging.getLogger(__name__)


@dataclass
class FallbackPolicy:
    """Tuning knobs of the graceful-degradation chain.

    ``condition_limit`` is the ``cond(I − M)`` above which a direct solve
    is treated as failed even though numpy returned numbers;
    ``regularization`` is the relative Tikhonov ridge of the
    least-squares fallback; the ``enable_*`` switches turn individual
    stages off (for testing and for cost control);
    ``brute_force_kwargs`` tunes the terminal transient fallback.
    """

    condition_limit: float = DIRECT_SOLVE_COND_LIMIT
    regularization: float = FIXED_POINT_RIDGE
    enable_regularized: bool = True
    enable_brute_force: bool = True
    brute_force_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.condition_limit <= 0.0:
            raise ReproError(
                f"condition_limit must be positive, got "
                f"{self.condition_limit}")


@dataclass
class AttemptRecord:
    """One strategy attempt of the fallback chain at one frequency."""

    strategy: str
    frequency: float
    trigger: str
    success: bool
    cost_seconds: float
    error: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self):
        """JSON-friendly form (result payloads)."""
        return {"strategy": self.strategy, "frequency": self.frequency,
                "trigger": self.trigger, "success": self.success,
                "cost_seconds": self.cost_seconds, "error": self.error,
                "data": dict(self.data)}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        return cls(strategy=str(data["strategy"]),
                   frequency=float(data["frequency"]),
                   trigger=str(data["trigger"]),
                   success=bool(data["success"]),
                   cost_seconds=float(data["cost_seconds"]),
                   error=str(data.get("error", "")),
                   data=dict(data.get("data", {})))

    def __str__(self):
        outcome = "ok" if self.success else f"failed ({self.error})"
        return (f"{self.strategy} @ {self.frequency:.6g} Hz "
                f"[{self.trigger}]: {outcome} "
                f"in {self.cost_seconds:.3g} s")


class FallbackExhausted(ReproError):
    """Every strategy of the fallback chain failed for one frequency."""

    def __init__(self, message, attempts=None, frequency=None):
        super().__init__(message)
        self.attempts = attempts or []
        self.frequency = frequency


def run_fallback_chain(strategies, frequency, report=None, recorder=None):
    """Run ``strategies`` in order until one succeeds.

    ``strategies`` is a sequence of ``(name, callable)``; each callable
    takes no arguments and returns the PSD value (it may raise any
    :class:`~repro.errors.ReproError`). The first strategy is the primary
    path; later ones are fallbacks triggered by the previous failure.

    Returns ``(value, attempts)``. Raises :class:`FallbackExhausted`
    (with the attempt records attached) when every strategy fails. Each
    attempt is mirrored into ``report`` when one is given: INFO for the
    primary path, WARNING for engaged fallbacks, ERROR for exhaustion.
    With an enabled ``recorder`` (:class:`repro.obs.Recorder`) every
    attempt additionally becomes an ``mft.attempt`` child span of the
    enclosing solve span, tagged with strategy and outcome.
    """
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    attempts = []
    trigger = "primary"
    for name, solve in strategies:
        t0 = time.perf_counter()
        recorder.count("fallback.attempts")
        try:
            with recorder.span("mft.attempt", strategy=name) as span:
                value = solve()
                span.tag(success=True)
        except ReproError as exc:
            cost = time.perf_counter() - t0
            record = AttemptRecord(
                strategy=name, frequency=float(frequency), trigger=trigger,
                success=False, cost_seconds=cost,
                error=f"{type(exc).__name__}: {exc}")
            attempts.append(record)
            logger.info("fallback: %s", record)
            if report is not None:
                report.add("fallback-attempt", Severity.WARNING,
                           str(record), strategy=name,
                           frequency=float(frequency), trigger=trigger,
                           success=False, cost_seconds=cost,
                           error=record.error)
            trigger = f"{name} failed: {type(exc).__name__}"
            continue
        cost = time.perf_counter() - t0
        record = AttemptRecord(
            strategy=name, frequency=float(frequency), trigger=trigger,
            success=True, cost_seconds=cost)
        attempts.append(record)
        if report is not None:
            severity = (Severity.INFO if trigger == "primary"
                        else Severity.WARNING)
            report.add("fallback-attempt", severity, str(record),
                       strategy=name, frequency=float(frequency),
                       trigger=trigger, success=True, cost_seconds=cost)
        if trigger != "primary":
            logger.warning("fallback: %s", record)
        return value, attempts
    message = (f"all {len(attempts)} solve strategies failed at "
               f"{float(frequency):.6g} Hz: "
               + "; ".join(str(a) for a in attempts))
    if report is not None:
        report.add("fallback-exhausted", Severity.ERROR, message,
                   frequency=float(frequency),
                   strategies=[a.strategy for a in attempts])
    logger.error("fallback chain exhausted at %.6g Hz", float(frequency))
    raise FallbackExhausted(message, attempts=attempts,
                            frequency=float(frequency))
