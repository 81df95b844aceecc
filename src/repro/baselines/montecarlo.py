"""Monte-Carlo SDE ensemble with exact per-segment Gaussian sampling.

The reference everyone trusts and nobody can afford (the paper's framing
of why a non-Monte-Carlo method matters). Trajectories of the switched
SDE are drawn *exactly*: within each segment the state is Gaussian with
mean ``Φ x`` and covariance equal to the Van Loan Gramian, so there is no
Euler–Maruyama discretization bias — the only errors are statistical
(finite ensemble) and spectral (finite record length / windowing).

The PSD is estimated with Hann-windowed periodograms averaged across the
ensemble and across segments of each record (Welch), normalised to the
double-sided convention used throughout this library.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from ..diagnostics.budget import as_budget
from ..diagnostics.report import DiagnosticsReport
from ..errors import BudgetExceededError, ReproError, StabilityError
from ..linalg.checked import (
    eigensystem_hermitian,
    eigenvalues,
    spectral_radius,
)
from ..noise.result import PsdResult
from ..tolerances import SCHEDULE_TILE_RTOL, UNIFORM_GRID_RTOL

logger = logging.getLogger(__name__)

#: The default burn-in lasts until the slowest Floquet mode has decayed
#: to this fraction of its initial amplitude.
BURN_IN_DECAY = 1e-6
#: Floor on the Floquet radius in the burn-in count, so a radius of
#: (nearly) zero gives a finite ``log``.
BURN_IN_RADIUS_FLOOR = 1e-12


@dataclass
class MonteCarloResult:
    """Ensemble PSD estimate with statistical error bars."""

    psd: PsdResult
    #: Standard error of each PSD bin across the ensemble.
    standard_error: np.ndarray
    n_trajectories: int
    n_periods: int
    runtime_seconds: float


def _uniform_discretization(system, samples_per_period, context=None):
    """Discretize so the one-period grid is uniform.

    Segment counts are allocated to phases proportionally to duration so
    that every segment has the same length — required for FFT-based
    spectral estimation. A prebuilt
    :class:`~repro.mft.context.SweepContext` may supply the
    discretization instead (propagators and Gramians shared with the
    deterministic engines), provided its grid is uniform.
    """
    if context is not None:
        disc = context.disc
        dt = np.diff(disc.grid)
        if not np.allclose(dt, dt[0], rtol=SCHEDULE_TILE_RTOL):
            raise ReproError(
                "sweep context discretization grid is not uniform; "
                "Monte-Carlo spectral estimation needs equal segment "
                "lengths — build the context with per-phase segment "
                "counts proportional to phase durations")
        return disc, len(disc.segments)
    durations = np.asarray([p.duration for p in system.phases])
    period = durations.sum()
    dt = period / samples_per_period
    counts = np.maximum(1, np.round(durations / dt).astype(int))
    # Adjust so segment lengths are equal across phases.
    base = durations / counts
    if not np.allclose(base, base[0], rtol=UNIFORM_GRID_RTOL):
        raise ReproError(
            "cannot build a uniform sampling grid: phase durations "
            f"{durations.tolist()} are not commensurate at "
            f"{samples_per_period} samples/period; pick a multiple of "
            "the duty-cycle denominator")
    # FFT-based estimation requires uniform sampling: disable the
    # boundary-layer grid grading used by the deterministic engines.
    disc = system.discretize(counts, boundary_layer=False)
    dt = np.diff(disc.grid)
    if not np.allclose(dt, dt[0], rtol=UNIFORM_GRID_RTOL):
        raise ReproError("discretization grid is not uniform")
    return disc, int(counts.sum())


def simulate_trajectories(system, n_trajectories, n_periods,
                          samples_per_period=64, rng=None, burn_in=None,
                          budget=None, context=None, recorder=None):
    """Draw exact sample paths of the switched SDE.

    Returns ``(times, outputs)`` with ``outputs`` of shape
    ``(n_completed, n_periods * samples_per_period)`` — one row per
    trajectory of the first system output, sampled uniformly, after a
    burn-in of ``burn_in`` periods (default: enough for the slowest
    Floquet mode to decay to 1e-6). ``n_completed`` equals
    ``n_trajectories`` unless a ``budget`` runs out mid-ensemble, in
    which case the completed subset is returned (raising
    :class:`~repro.errors.BudgetExceededError` if not even one
    trajectory finished).
    """
    rng = np.random.default_rng(rng)
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    budget = as_budget(budget)
    budget.start()
    disc, n_seg = _uniform_discretization(system, samples_per_period,
                                          context=context)
    l_row = np.asarray(system.output_matrix)[0]
    n = disc.n_states
    phi_t = context.monodromy if context is not None else disc.monodromy()
    multipliers = eigenvalues(phi_t, context="Monte-Carlo monodromy")
    multipliers = multipliers[np.argsort(-np.abs(multipliers))]
    radius = float(np.max(np.abs(multipliers)))
    if radius >= 1.0:
        raise StabilityError(
            f"system unstable (Floquet radius {radius:.4g}); Monte-Carlo "
            "stationary PSD estimation is undefined",
            multipliers=multipliers, spectral_radius=radius)
    if burn_in is None:
        slowest = max(radius, BURN_IN_RADIUS_FLOOR)
        burn_in = (int(np.ceil(np.log(BURN_IN_DECAY) / np.log(slowest)))
                   if radius > 0.0 else 1)
        burn_in = min(max(burn_in, 4), 100000)

    # Pre-factor the segment noise covariances.
    factors = []
    for seg in disc.segments:
        w, v = eigensystem_hermitian(seg.gramian,
                                     context="segment Gramian factor")
        w = np.clip(w, 0.0, None)
        factors.append(v * np.sqrt(w))

    n_keep = n_periods * n_seg
    outputs = np.empty((n_trajectories, n_keep))
    dt = disc.period / n_seg
    completed = 0
    with recorder.span("monte-carlo.simulate",
                       n_trajectories=int(n_trajectories),
                       burn_in=int(burn_in)):
        for traj in range(n_trajectories):
            reason = budget.exceeded()
            if reason is not None:
                if completed < 1:
                    raise BudgetExceededError(
                        f"Monte-Carlo budget spent before the first "
                        f"trajectory finished: {reason}",
                        elapsed_seconds=budget.elapsed_seconds,
                        spent_periods=budget.spent_periods)
                logger.warning(
                    "Monte-Carlo budget spent after %d of %d trajectories "
                    "(%s); returning the completed subset", completed,
                    n_trajectories, reason)
                break
            x = np.zeros(n)
            col = 0
            for period in range(burn_in + n_periods):
                keep = period >= burn_in
                for k, seg in enumerate(disc.segments):
                    x = seg.phi @ x + factors[k] @ rng.standard_normal(n)
                    if seg.jump is not None:
                        x = seg.jump @ x
                    if keep:
                        outputs[traj, col] = l_row @ x
                        col += 1
            budget.charge_periods(burn_in + n_periods)
            completed += 1
            recorder.count("monte-carlo.trajectories")
    times = dt * np.arange(n_keep)
    return times, outputs[:completed]


def monte_carlo_psd(system, n_trajectories=64, n_periods=256,
                    samples_per_period=64, segment_periods=64,
                    rng=None, output_row=0, budget=None, context=None,
                    recorder=None):
    """Welch-estimated double-sided output PSD (V²/Hz) of the switched system.

    Parameters
    ----------
    segment_periods:
        Welch block length in clock periods; frequency resolution is
        ``f_clk / segment_periods``.
    budget:
        Optional :class:`~repro.diagnostics.budget.SweepBudget` (or
        wall-clock seconds). When spent mid-ensemble the estimate is
        built from the completed trajectories and a WARNING finding is
        recorded in ``result.psd.info["diagnostics"]``.

    Returns
    -------
    MonteCarloResult
    """
    del output_row  # only the first output is simulated
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    t0 = time.perf_counter()
    report = DiagnosticsReport(context="monte-carlo")
    with recorder.span("monte-carlo.run",
                       n_trajectories=int(n_trajectories),
                       n_periods=int(n_periods)):
        times, outputs = simulate_trajectories(
            system, n_trajectories, n_periods, samples_per_period, rng,
            budget=budget, context=context, recorder=recorder)
        return _finish_welch(system, times, outputs, n_trajectories,
                             n_periods, samples_per_period,
                             segment_periods, report, recorder, t0)


def _finish_welch(system, times, outputs, n_trajectories, n_periods,
                  samples_per_period, segment_periods, report, recorder,
                  t0):
    """Welch-average the ensemble and assemble the result object."""
    if outputs.shape[0] < n_trajectories:
        report.warning(
            "partial-ensemble",
            f"budget spent after {outputs.shape[0]} of {n_trajectories} "
            "trajectories; statistical error bars are wider than "
            "requested",
            completed=int(outputs.shape[0]), requested=int(n_trajectories))
    if outputs.shape[0] < 2:
        raise BudgetExceededError(
            "Monte-Carlo needs at least 2 completed trajectories for "
            f"error bars, got {outputs.shape[0]}"
        ).attach_diagnostics(report)
    dt = times[1] - times[0]
    block = segment_periods * samples_per_period
    if block > outputs.shape[1]:
        raise ReproError(
            f"record too short: {outputs.shape[1]} samples per "
            f"trajectory < block of {block}")
    window = np.hanning(block)
    win_power = float(np.sum(window ** 2))
    n_blocks = outputs.shape[1] // block
    freqs = np.fft.rfftfreq(block, d=dt)

    per_traj = np.empty((outputs.shape[0], freqs.size))
    with recorder.span("monte-carlo.welch", n_blocks=int(n_blocks),
                       block=int(block)):
        for idx in range(outputs.shape[0]):
            acc = np.zeros(freqs.size)
            for b in range(n_blocks):
                chunk = outputs[idx, b * block:(b + 1) * block] * window
                spec = np.abs(np.fft.rfft(chunk)) ** 2
                acc += spec
            # Double-sided PSD: |X|^2 dt / sum(w^2)  (no factor 2).
            per_traj[idx] = acc / n_blocks * dt / win_power
    mean = per_traj.mean(axis=0)
    stderr = per_traj.std(axis=0, ddof=1) / np.sqrt(outputs.shape[0])
    runtime = time.perf_counter() - t0
    # Sampling a continuous-time process aliases all power above the
    # Nyquist rate into the band. Flag it when the circuit has dynamics
    # much faster than the sampling grid (e.g. 80 Ω switch time
    # constants): raise samples_per_period until the warning clears
    # before trusting fine spectral features.
    fastest = max(
        spectral_radius(p.a_matrix, context="aliasing check")
        for p in system.phases)
    nyquist_radps = np.pi / dt
    aliasing = fastest > nyquist_radps
    if aliasing:
        report.warning(
            "aliasing",
            f"fastest circuit pole ({fastest:.3g} rad/s) exceeds the "
            f"sampling Nyquist rate ({nyquist_radps:.3g} rad/s); power "
            "above Nyquist folds into the band — raise "
            "samples_per_period before trusting fine spectral features",
            fastest_pole_radps=fastest,
            nyquist_radps=float(nyquist_radps))
        logger.warning("Monte-Carlo aliasing: fastest pole %.3g rad/s > "
                       "Nyquist %.3g rad/s", fastest, nyquist_radps)
    result = PsdResult(
        frequencies=freqs, psd=mean, method="monte-carlo",
        info={"n_trajectories": outputs.shape[0],
              "n_blocks_per_trajectory": n_blocks,
              "runtime_seconds": runtime,
              "aliasing_warning": bool(aliasing),
              "fastest_pole_radps": fastest,
              "nyquist_radps": float(nyquist_radps),
              "diagnostics": report})
    return MonteCarloResult(psd=result, standard_error=stderr,
                            n_trajectories=outputs.shape[0],
                            n_periods=n_periods,
                            runtime_seconds=runtime)
