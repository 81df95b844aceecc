"""Brute-force time-domain PSD: the baseline the DAC paper accelerates.

This engine follows the companion draft's procedure: starting from zero
initial conditions, integrate

* the covariance        ``dK/dt  = A K + K A^T + B B^T``
* the cross-spectrum    ``dK'/dt = A K' + K l e^{jωt}``
* the energy spectrum   ``dK''/dt = 2 Re(l^T K' e^{-jωt})``

forward in time and report ``PSD(t) = K''(t)/t`` once it changes by less
than ``tol_db`` (default 0.1 dB, the paper's criterion) over a trailing
window of a few clock periods.

Internally the cross-spectrum is stepped in the factored variable
``q = K' e^{-jωt}`` (see :mod:`repro.mft.engine`), which removes the fast
``e^{jωt}`` rotation from the state; the *transient* nature of the
computation is untouched — ``K`` and ``q`` both start from zero and the
engine pays one full integration period per clock cycle until the PSD
settles, which is exactly the cost the mixed-frequency-time method
eliminates. Two step modes:

* ``"exact"`` (default) — per-segment Van Loan propagators for ``K`` and
  exact φ-function affine steps for ``q`` (machine-accurate per step on
  piecewise-LTI circuits, even with nanosecond switch time constants
  inside 100 µs phases).
* ``"trapezoid"`` — classic implicit trapezoidal steps, the numerical
  method of the paper's prototype. Second-order: it needs the segment
  length to resolve the fastest time constant, and the ablation
  benchmark shows it overestimating badly on stiff grids — one more
  reason the exact-propagator formulation matters.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..diagnostics.budget import as_budget
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import BudgetExceededError, ConvergenceError, ReproError
from ..linalg.packing import symmetrize
from ..linalg.phi import affine_step_integrals
from .result import ConvergenceTrace, PsdResult

logger = logging.getLogger(__name__)


@dataclass
class BruteForceResult:
    """PSD estimate at one frequency plus its convergence history."""

    frequency: float
    psd: float
    trace: ConvergenceTrace
    periods: int
    runtime_seconds: float


def brute_force_psd(system, frequencies, output_row=0,
                    segments_per_phase=64, tol_db=0.1, window_periods=5,
                    max_periods=20000, min_periods=8, step_mode="exact",
                    on_failure="raise", budget=None, context=None,
                    recorder=None, disc=None, fixed_periods=None):
    """Average double-sided output PSD (V²/Hz) at the given frequencies [Hz].

    Returns a :class:`~repro.noise.result.PsdResult`; per-frequency
    convergence traces are stored in ``result.info["details"]``.

    A ``context`` (:class:`~repro.mft.context.SweepContext`) supplies a
    prebuilt discretization — propagators and Van Loan Gramians computed
    once and shared with the MFT engine — in which case its density
    overrides ``segments_per_phase``. An explicit ``disc``
    (:class:`~repro.lptv.discretization.PeriodDiscretization`) overrides
    both; per-source attribution uses it to replay the transient with a
    single noise column's Gramians.

    With ``on_failure="raise"`` (the default, the historical behaviour) a
    frequency that fails to settle within ``max_periods`` clock periods
    raises :class:`~repro.errors.ConvergenceError` (carrying the
    offending ``frequency``). With ``on_failure="record"`` the failed
    frequency contributes NaN plus a failure record in
    ``info["failures"]`` and the sweep continues. A ``budget``
    (:class:`~repro.diagnostics.budget.SweepBudget` or wall-clock
    seconds) bounds the whole sweep; the deadline is also checked
    *inside* the per-period loop so one pathological frequency cannot
    hang the sweep. A ``recorder`` (:class:`~repro.obs.Recorder`) traces
    the sweep: one ``brute-force.sweep`` root span with a
    ``brute-force.solve`` child per frequency.

    ``fixed_periods`` — an int, or an array with one entry per frequency
    — integrates *exactly* that many clock periods and skips the
    convergence test entirely. This is the attribution replay mode: the
    integrated ODEs are linear in the Gramians, so per-source transients
    run for the same horizon as the total sum to it exactly. A NaN entry
    skips its frequency (the total failed there, so the per-source value
    must stay NaN too).
    """
    if on_failure not in ("raise", "record"):
        raise ReproError(
            f"on_failure must be 'raise' or 'record', got {on_failure!r}")
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if fixed_periods is not None:
        fixed_periods = np.broadcast_to(
            np.asarray(fixed_periods, dtype=float), freqs.shape)
    budget = as_budget(budget)
    budget.start()
    if disc is None:
        disc = (context.disc if context is not None
                else system.discretize(segments_per_phase))
    l_row = np.asarray(system.output_matrix)[output_row].astype(float)
    report = DiagnosticsReport(context="brute-force sweep")
    details = []
    failures = []
    psd_values = np.full(freqs.shape, np.nan)
    t_start = time.perf_counter()
    with recorder.span("brute-force.sweep", n=int(freqs.size),
                       step_mode=step_mode):
        _sweep_loop(disc, l_row, freqs, tol_db, window_periods,
                    max_periods, min_periods, step_mode, on_failure,
                    budget, recorder, report, details, failures,
                    psd_values, fixed_periods=fixed_periods)
    runtime = time.perf_counter() - t_start
    ok_periods = int(sum(d.periods for d in details if d is not None))
    logger.debug("brute-force sweep: %d frequencies, %d periods, %.3g s",
                 freqs.size, ok_periods, runtime)
    return PsdResult(
        frequencies=freqs, psd=psd_values,
        method=f"brute-force/{step_mode}",
        output=system.output_names[output_row]
        if hasattr(system, "output_names") else "",
        info={
            "details": details,
            "tol_db": tol_db,
            "window_periods": window_periods,
            "runtime_seconds": runtime,
            "total_periods": ok_periods,
            "diagnostics": report,
            "failures": failures,
        })


def _sweep_loop(disc, l_row, freqs, tol_db, window_periods, max_periods,
                min_periods, step_mode, on_failure, budget, recorder,
                report, details, failures, psd_values,
                fixed_periods=None):
    """Per-frequency loop of :func:`brute_force_psd` (mutates outputs)."""
    for idx, f in enumerate(freqs):
        target = None
        if fixed_periods is not None:
            if not np.isfinite(fixed_periods[idx]):
                # The total run failed here; keep the replay NaN too.
                details.append(None)
                continue
            target = int(fixed_periods[idx])
        reason = budget.exceeded()
        if reason is not None:
            for k in range(idx, freqs.size):
                failures.append(FrequencyFailure(
                    frequency=float(freqs[k]), index=k, stage="budget",
                    error="BudgetExceededError", message=reason))
            report.error("budget-exhausted",
                         f"sweep budget spent before "
                         f"{freqs.size - idx} of {freqs.size} "
                         f"frequencies: {reason}",
                         skipped=freqs.size - idx, reason=reason)
            if on_failure == "raise":
                raise BudgetExceededError(
                    reason, elapsed_seconds=budget.elapsed_seconds,
                    spent_periods=budget.spent_periods,
                ).attach_diagnostics(report)
            logger.warning("brute-force sweep budget spent; skipping "
                           "%d frequencies", freqs.size - idx)
            details.extend([None] * (freqs.size - idx))
            break
        if not np.isfinite(f):
            exc = ReproError(
                f"analysis frequency must be finite, got {f!r}")
            report.error("non-finite-frequency", str(exc), index=idx)
            if on_failure == "raise":
                raise exc.attach_diagnostics(report)
            logger.warning("recording NaN at index %d: %s", idx, exc)
            failures.append(FrequencyFailure(
                frequency=float(f), index=idx, stage="input",
                error=type(exc).__name__, message=str(exc)))
            details.append(None)
            continue
        recorder.count("sweep.frequencies")
        try:
            with recorder.span("brute-force.solve",
                               frequency=float(f)) as span:
                detail = _single_frequency(disc, l_row, f, tol_db,
                                           window_periods, max_periods,
                                           min_periods, step_mode, budget,
                                           fixed_periods=target)
                span.tag(periods=int(detail.periods))
            if recorder.enabled:
                recorder.observe("brute-force.solve_seconds",
                                 span.duration)
        except (ConvergenceError, BudgetExceededError) as exc:
            periods = getattr(exc, "iterations", None) or 0
            budget.charge_periods(periods)
            report.error(
                "brute-force-failure",
                f"brute-force PSD failed at {f:.6g} Hz: {exc}",
                frequency=float(f), error=type(exc).__name__,
                periods=periods)
            if on_failure == "raise":
                raise exc.attach_diagnostics(report)
            logger.warning("recording NaN at %.6g Hz: %s", f, exc)
            failures.append(FrequencyFailure(
                frequency=float(f), index=idx, stage="transient",
                error=type(exc).__name__, message=str(exc)))
            details.append(None)
            continue
        budget.charge_periods(detail.periods)
        details.append(detail)
        psd_values[idx] = detail.psd


def _shifted_step_integrals(disc, omega):
    """Per-segment ``(Φ_ω, I1, I2)`` triples, cached on unique matrices."""
    cache = {}
    triples = []
    n = disc.n_states
    eye = np.eye(n)
    for seg in disc.segments:
        # Exact (A, duration) key: independent of the kernel's shared-Φ groups.
        key = (id(seg.a_matrix), seg.duration)
        if key not in cache:
            a_shifted = seg.a_matrix.astype(complex) - 1j * omega * eye
            phi_shifted = np.exp(-1j * omega * seg.duration) * seg.phi
            cache[key] = (affine_step_integrals(
                a_shifted, seg.duration, phi=phi_shifted), a_shifted)
        triples.append(cache[key])
    return triples


def _single_frequency(disc, l_row, frequency, tol_db, window_periods,
                      max_periods, min_periods, step_mode, budget=None,
                      fixed_periods=None):
    if step_mode not in ("exact", "trapezoid"):
        raise ReproError(f"unknown step_mode {step_mode!r}")
    deadline = budget.deadline() if budget is not None else None
    if fixed_periods is not None:
        if fixed_periods < 1:
            raise ReproError(
                f"fixed_periods must be >= 1, got {fixed_periods}")
        max_periods = int(fixed_periods)
    omega = 2.0 * np.pi * frequency
    n = disc.n_states
    k_mat = np.zeros((n, n))
    q_vec = np.zeros(n, dtype=complex)
    esd = 0.0
    t_abs = 0.0
    history_t = []
    history_psd = []
    converged = False
    period_index = 0
    steps = _shifted_step_integrals(disc, omega) \
        if step_mode == "exact" else None

    t0 = time.perf_counter()
    while period_index < max_periods:
        for idx, seg in enumerate(disc.segments):
            h = seg.duration
            if step_mode == "exact":
                k_new = symmetrize(seg.phi @ k_mat @ seg.phi.T
                                   + seg.gramian)
            else:
                k_new = _trapezoid_lyapunov_step(seg, k_mat, h)
            f_left = k_mat @ l_row
            f_right = k_new @ l_row
            if step_mode == "exact":
                (phi_w, i1, i2), a_shifted = steps[idx]
                slope = (f_right - f_left) / h
                dq_left = a_shifted @ q_vec + f_left
                q_new = phi_w @ q_vec + i1 @ f_left + i2 @ slope
                dq_right = a_shifted @ q_new + f_right
                # Corrected trapezoid for the ESD increment.
                esd += np.real(
                    0.5 * h * (l_row @ (q_vec + q_new))
                    + h * h / 12.0 * (l_row @ (dq_left - dq_right))
                ) * 2.0
            else:
                q_new = _trapezoid_affine_step(seg, q_vec, f_left,
                                               f_right, h, omega)
                esd += np.real(
                    h * (l_row @ (q_vec + q_new)))
            k_mat, q_vec, t_abs = k_new, q_new, t_abs + h
            if seg.jump is not None:
                k_mat = symmetrize(seg.jump @ k_mat @ seg.jump.T)
                q_vec = seg.jump @ q_vec
        period_index += 1
        history_t.append(t_abs)
        history_psd.append(esd / t_abs if t_abs > 0.0 else 0.0)
        if fixed_periods is None and period_index >= max(
                min_periods, window_periods + 1):
            if _window_converged(history_psd, window_periods, tol_db):
                converged = True
                break
        if deadline is not None and time.perf_counter() > deadline:
            raise ConvergenceError(
                f"brute-force PSD at {frequency:.6g} Hz hit the sweep "
                f"wall-clock budget after {period_index} periods (last "
                f"estimate {history_psd[-1]:.6g})",
                iterations=period_index, frequency=float(frequency))
    runtime = time.perf_counter() - t0

    if fixed_periods is not None:
        # Replay mode: the horizon was fixed up front, there is no
        # convergence test to pass.
        converged = True
    if not converged:
        raise ConvergenceError(
            f"brute-force PSD at {frequency:.6g} Hz did not settle within "
            f"{max_periods} periods (last estimate "
            f"{history_psd[-1]:.6g})", iterations=period_index,
            frequency=float(frequency))
    trace = ConvergenceTrace(
        times=np.asarray(history_t), psd_estimates=np.asarray(history_psd),
        frequency=frequency, converged=converged, periods=period_index)
    return BruteForceResult(frequency=frequency, psd=float(history_psd[-1]),
                            trace=trace, periods=period_index,
                            runtime_seconds=runtime)


def _window_converged(history, window, tol_db):
    recent = np.asarray(history[-(window + 1):])
    if np.any(recent <= 0.0):
        return False
    swing = 10.0 * (np.log10(recent.max()) - np.log10(recent.min()))
    return swing < tol_db


def _trapezoid_lyapunov_step(seg, k_mat, h):
    """Implicit-trapezoid Lyapunov step in Cayley form.

    ``K+ = P K P^T + h/2 (BB^T + P BB^T P^T)`` with the propagator ``P``
    taken as the segment's ``phi`` — second order, the accuracy class of
    the paper's prototype. Only valid when ``‖A‖h`` is modest; kept for
    the fidelity/ablation studies.
    """
    bbt = seg.b_matrix @ seg.b_matrix.T
    p = seg.phi
    return symmetrize(p @ k_mat @ p.T + 0.5 * h * (bbt + p @ bbt @ p.T))


def _trapezoid_affine_step(seg, q, f_left, f_right, h, omega):
    """Trapezoidal step of ``dq/dt = (A−jω) q + f``."""
    p = np.exp(-1j * omega * h) * seg.phi
    return p @ q + 0.5 * h * (p @ f_left + f_right)
