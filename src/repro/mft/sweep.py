"""Frequency-grid helpers for PSD sweeps.

Switched-capacitor spectra have structure at the clock harmonics (sinc
notches and folding peaks), so the grids here make it easy to resolve
those features without wasting points elsewhere.
"""

from __future__ import annotations

import logging

import numpy as np

from ..diagnostics.budget import as_budget
from ..errors import ReproError
from ..tolerances import PSD_FLOOR, SWEEP_REFINE_DB
from ..typing import FloatArray

logger = logging.getLogger(__name__)


def linear_grid(f_start: float, f_stop: float,
                n_points: int) -> FloatArray:
    """Inclusive linear frequency grid, shape ``(n_points,)`` [Hz]."""
    if f_stop <= f_start:
        raise ReproError(f"empty frequency range [{f_start}, {f_stop}]")
    if n_points < 2:
        raise ReproError("need at least 2 grid points")
    return np.linspace(float(f_start), float(f_stop), int(n_points))


def decade_grid(f_start: float, f_stop: float,
                points_per_decade: int = 20) -> FloatArray:
    """Logarithmic frequency grid with a fixed density per decade [Hz]."""
    if f_start <= 0.0 or f_stop <= f_start:
        raise ReproError(f"bad log range [{f_start}, {f_stop}]")
    decades = np.log10(f_stop / f_start)
    n = max(2, int(np.ceil(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)


def clock_harmonic_grid(f_clock, n_harmonics, points_per_interval=32,
                        f_start=None):
    """Linear grid refined around every clock harmonic up to n_harmonics.

    Returns a strictly increasing grid from ``f_start`` (default
    ``f_clock / points_per_interval``) to ``n_harmonics * f_clock`` with
    extra points clustered near each harmonic, where sinc notches and
    folding peaks live. The first point is always exactly the requested
    start — even when it falls between base points — and a start at or
    beyond ``n_harmonics * f_clock`` raises.
    """
    if f_clock <= 0.0 or n_harmonics < 1:
        raise ReproError("need a positive clock frequency and >=1 harmonic")
    start = (f_clock / points_per_interval if f_start is None
             else float(f_start))
    stop = n_harmonics * f_clock
    if not np.isfinite(start) or start < 0.0 or start >= stop:
        raise ReproError(
            f"f_start must be a finite frequency in [0, {stop:.6g}) Hz, "
            f"got {start!r}")
    base = np.linspace(0.0, stop, n_harmonics * points_per_interval + 1)
    extras = []
    for k in range(1, n_harmonics + 1):
        centre = k * f_clock
        extras.append(centre + f_clock * np.asarray(
            [-0.02, -0.01, -0.005, -0.002, 0.002, 0.005, 0.01, 0.02]))
    grid = np.unique(np.concatenate([base] + extras))
    grid = grid[(grid >= start) & (grid <= stop)]
    if grid.size == 0 or grid[0] > start:
        grid = np.insert(grid, 0, start)
    return grid


def adaptive_frequency_grid(psd_fn, f_start, f_stop, n_initial=16,
                            max_points=256, tol_db=SWEEP_REFINE_DB,
                            budget=None):
    """Adaptively refine a grid until log-PSD is bisection-converged.

    ``psd_fn(f)`` returns the PSD at one frequency. Starting from a
    logarithmic seed grid, the interval whose midpoint PSD deviates most
    (in dB) from the log-log interpolation of its endpoints is bisected,
    until every deviation is below ``tol_db`` or ``max_points`` is
    reached. Returns ``(frequencies, psd_values)``.

    Non-finite samples (a failed frequency in a partial-failure sweep)
    are kept in the output but excluded from the refinement criterion, so
    one bad frequency cannot drive endless bisection around itself. An
    optional ``budget`` (:class:`~repro.diagnostics.budget.SweepBudget`
    or seconds) stops refinement — never mid-``psd_fn`` — when spent.
    """
    budget = as_budget(budget)
    budget.start()
    freqs = list(decade_grid(f_start, f_stop,
                             points_per_decade=max(
                                 2, n_initial // max(1, int(np.log10(
                                     f_stop / f_start))))))
    if len(freqs) < 2:
        freqs = [float(f_start), float(f_stop)]
    values = [float(psd_fn(f)) for f in freqs]

    def probe(k):
        """Midpoint deviation (dB) of interval k; caches the midpoint."""
        if not (np.isfinite(values[k]) and np.isfinite(values[k + 1])):
            # An endpoint failed: no meaningful interpolation to check,
            # and bisecting toward a failing frequency only multiplies
            # failures. Mark the interval converged.
            return 0.0, np.sqrt(freqs[k] * freqs[k + 1]), np.nan
        f_mid = np.sqrt(freqs[k] * freqs[k + 1])
        v_mid = float(psd_fn(f_mid))
        if not np.isfinite(v_mid):
            logger.warning("adaptive grid: psd_fn failed at midpoint "
                           "%.6g Hz; freezing the interval", f_mid)
            return 0.0, f_mid, v_mid
        interp = np.sqrt(max(values[k], PSD_FLOOR)
                         * max(values[k + 1], PSD_FLOOR))
        dev = abs(10.0 * np.log10(max(v_mid, PSD_FLOOR) / interp))
        return dev, f_mid, v_mid

    # One midpoint probe per interval, refreshed only where the grid
    # changed, so each psd_fn evaluation is used at most twice.
    probes = [probe(k) for k in range(len(freqs) - 1)]
    while len(freqs) < max_points:
        if budget.exceeded() is not None:
            logger.warning("adaptive grid refinement stopped at %d "
                           "points: %s", len(freqs), budget.exceeded())
            break
        k = int(np.argmax([p[0] for p in probes]))
        dev, f_mid, v_mid = probes[k]
        if dev < tol_db:
            break
        freqs.insert(k + 1, f_mid)
        values.insert(k + 1, v_mid)
        probes[k:k + 1] = [probe(k), probe(k + 1)]
    return np.asarray(freqs), np.asarray(values)
