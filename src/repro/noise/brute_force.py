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


def brute_force_psd(system, frequencies, **options):
    """Average double-sided output PSD (V²/Hz) at the given frequencies [Hz].

    The keyword ``options`` (``output_row``, ``segments_per_phase``,
    ``tol_db``, ``window_periods``, ``max_periods``, ``min_periods``,
    ``step_mode``, ``on_failure``, ``budget``, ``context``,
    ``recorder``) and their defaults are those of
    :func:`brute_force_rows`.  Returns a
    :class:`~repro.noise.result.PsdResult`; per-frequency convergence
    traces are stored in ``result.info["details"]``.

    A ``context`` (:class:`~repro.mft.context.SweepContext`) supplies a
    prebuilt discretization — propagators and Van Loan Gramians computed
    once and shared with the MFT engine — in which case its density
    overrides ``segments_per_phase``.

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

    Per-source attribution is :func:`brute_force_rows`, the same sweep
    with one transient row per noise source.
    """
    return brute_force_rows(system, frequencies, **options)[0]


def brute_force_rows(system, frequencies, sources=False, output_row=0,
                     segments_per_phase=64, tol_db=0.1, window_periods=5,
                     max_periods=20000, min_periods=8, step_mode="exact",
                     on_failure="raise", budget=None, context=None,
                     recorder=None):
    """:func:`brute_force_psd` plus each frequency's transient rows.

    Returns ``(result, rows)``: the :class:`~repro.noise.result.PsdResult`
    of :func:`brute_force_psd` and an ``(n_freq, R)`` array of the rows'
    double-sided PSDs (V²/Hz), NaN where a frequency failed.  Without
    ``sources`` the one row is the total.  With ``sources`` one transient
    integrates the ``[total, source…]`` drive stack: ``K`` is ``(R, n,
    n)`` and ``q`` ``(R, n)``, row 0 driven by the total Gramians and row
    ``1 + s`` by source ``s``'s exactly conservative share
    (:func:`~repro.mft.context.split_source_gramians`, from the
    context's cached split; a context is built when none is given).
    The integrated ODEs are linear in their drives, so the sources sum
    to the total.  Convergence is judged on the total row, whose values
    are bit for bit those of an unattributed sweep, and each frequency's
    periods are charged to the budget once.
    """
    if on_failure not in ("raise", "record"):
        raise ReproError(
            f"on_failure must be 'raise' or 'record', got {on_failure!r}")
    if step_mode not in ("exact", "trapezoid"):
        raise ReproError(f"unknown step_mode {step_mode!r}")
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    budget = as_budget(budget)
    budget.start()
    if sources and context is None:
        from ..mft.context import SweepContext
        context = SweepContext(system, segments_per_phase)
    disc = (context.disc if context is not None
            else system.discretize(segments_per_phase))
    drives = _segment_drives(disc, step_mode,
                             context._split_sources() if sources else None)
    l_row = np.asarray(system.output_matrix)[output_row].astype(float)
    report = DiagnosticsReport(context="brute-force sweep")
    details = []
    failures = []
    n_rows = 1 + context.n_sources if sources else 1
    rows = np.full((freqs.size, n_rows), np.nan)
    t_start = time.perf_counter()
    with recorder.span("brute-force.sweep", n=int(freqs.size),
                       step_mode=step_mode):
        _sweep_loop(disc, drives, l_row, freqs, tol_db, window_periods,
                    max_periods, min_periods, step_mode, on_failure,
                    budget, recorder, report, details, failures, rows)
    runtime = time.perf_counter() - t_start
    ok_periods = int(sum(d.periods for d in details if d is not None))
    logger.debug("brute-force sweep: %d frequencies, %d periods, %.3g s",
                 freqs.size, ok_periods, runtime)
    result = PsdResult(
        frequencies=freqs, psd=rows[:, 0].copy(),
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
    return result, rows


def _segment_drives(disc, step_mode, split):
    """Each segment's noise drive of the covariance step.

    The Van Loan Gramian (``"exact"``) or ``B Bᵀ`` (``"trapezoid"``) of
    the total, an ``(n, n)`` matrix; with a per-source ``split``
    (:func:`~repro.mft.context.split_source_gramians`) the ``(R, n, n)``
    stack of the total over each source's share.  Segments of one run
    share one drive.
    """
    exact = step_mode == "exact"
    drives = []
    for i, run in enumerate(disc.runs):
        drive = run.gramian if exact else run.b_matrix @ run.b_matrix.T
        if split is not None:
            shares = (split.gramians[i] if exact
                      else [col @ col.T for col in split.columns[i]])
            drive = np.stack([drive, *shares])
        drives.extend([drive] * (run.stop - run.start))
    return drives


def _sweep_loop(disc, drives, l_row, freqs, tol_db, window_periods,
                max_periods, min_periods, step_mode, on_failure, budget,
                recorder, report, details, failures, rows):
    """Per-frequency loop of :func:`brute_force_rows` (mutates outputs)."""
    for idx, f in enumerate(freqs):
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
                detail, rows[idx] = _single_frequency(
                    disc, drives, l_row, f, tol_db, window_periods,
                    max_periods, min_periods, step_mode, budget)
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


def _single_frequency(disc, drives, l_row, frequency, tol_db,
                      window_periods, max_periods, min_periods, step_mode,
                      budget):
    """One transient to convergence: ``(BruteForceResult, rows)``.

    ``drives[k]`` is segment ``k``'s covariance drive, ``(n, n)`` or an
    ``(R, n, n)`` stack; every row rides in the same products as
    ``(n, n)`` and ``(n, 1)`` slabs, so row 0 is bit for bit the
    unstacked transient.  ``rows`` holds each row's final estimate; the
    trace and the convergence test follow the total, row 0.
    """
    deadline = budget.deadline()
    omega = 2.0 * np.pi * frequency
    n = disc.n_states
    lead = np.shape(drives[0])[:-2]
    l_col = l_row[:, None]
    k_mat = np.zeros(lead + (n, n))
    q_vec = np.zeros(lead + (n, 1), dtype=complex)
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
                                   + drives[idx])
            else:
                k_new = _trapezoid_lyapunov_step(seg.phi, k_mat,
                                                 drives[idx], h)
            f_left = k_mat @ l_col
            f_right = k_new @ l_col
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
        estimate = esd / t_abs if t_abs > 0.0 else np.zeros(np.shape(esd))
        history_t.append(t_abs)
        history_psd.append(float(estimate.flat[0]))
        if period_index >= max(min_periods, window_periods + 1):
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

    if not converged:
        raise ConvergenceError(
            f"brute-force PSD at {frequency:.6g} Hz did not settle within "
            f"{max_periods} periods (last estimate "
            f"{history_psd[-1]:.6g})", iterations=period_index,
            frequency=float(frequency))
    trace = ConvergenceTrace(
        times=np.asarray(history_t), psd_estimates=np.asarray(history_psd),
        frequency=frequency, converged=converged, periods=period_index)
    detail = BruteForceResult(frequency=frequency, psd=history_psd[-1],
                              trace=trace, periods=period_index,
                              runtime_seconds=runtime)
    return detail, estimate.reshape(-1)


def _window_converged(history, window, tol_db):
    recent = np.asarray(history[-(window + 1):])
    if np.any(recent <= 0.0):
        return False
    swing = 10.0 * (np.log10(recent.max()) - np.log10(recent.min()))
    return swing < tol_db


def _trapezoid_lyapunov_step(p, k_mat, bbt, h):
    """Implicit-trapezoid Lyapunov step in Cayley form.

    ``K+ = P K P^T + h/2 (BB^T + P BB^T P^T)`` with the propagator ``P``
    taken as the segment's ``phi`` — second order, the accuracy class of
    the paper's prototype. Only valid when ``‖A‖h`` is modest; kept for
    the fidelity/ablation studies.
    """
    return symmetrize(p @ k_mat @ p.T + 0.5 * h * (bbt + p @ bbt @ p.T))


def _trapezoid_affine_step(seg, q, f_left, f_right, h, omega):
    """Trapezoidal step of ``dq/dt = (A−jω) q + f``."""
    p = np.exp(-1j * omega * h) * seg.phi
    return p @ q + 0.5 * h * (p @ f_left + f_right)
