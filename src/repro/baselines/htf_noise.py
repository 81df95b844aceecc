"""LPTV noise analysis through harmonic transfer functions.

The frequency-domain comparator (Strom–Signell; Roychowdhury's harmonic
PSDs): an LPTV system excited by stationary white noise of unit
double-sided intensity on input ``i`` produces output PSD

    S_y(f) = Σ_i Σ_k |H_k^{(i)}( j2π(f − k f_clk) )|²

— noise entering at the image frequency ``f − k f_clk`` is translated to
``f`` by the k-th harmonic transfer function. This is mathematically
independent machinery from the time-domain ESD engine (no covariance, no
cross-spectral ODE), which is what makes the agreement test between the
two meaningful.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import ConvergenceError
from ..lptv.htf import fourier_coefficients, periodic_envelope
from ..noise.result import PsdResult

logger = logging.getLogger(__name__)

#: Default share of the total that the last ``|k|`` harmonic band may
#: contribute before the fold counts as unconverged.
HTF_TAIL_TOL = 1e-4


def htf_noise_psd(system, frequencies, n_harmonics=20,
                  segments_per_phase=64, output_row=0, tail_tol=HTF_TAIL_TOL):
    """Double-sided output noise PSD (V²/Hz) via harmonic-transfer folding.

    Parameters
    ----------
    system : PiecewiseLTISystem
    frequencies : array of analysis frequencies [Hz]
    n_harmonics : fold images ``k = -n..n`` (checked for tail decay)
    tail_tol : the last |k| band must contribute less than this fraction
        of the total at every frequency, else ConvergenceError is raised.

    Returns
    -------
    PsdResult
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    disc = system.discretize(segments_per_phase)
    l_row = np.asarray(system.output_matrix)[output_row]
    n_sources = max(seg.b_matrix.shape[1] for seg in disc.segments)
    f_clock = 1.0 / disc.period
    psd = np.zeros_like(freqs)
    tail = np.zeros_like(freqs)
    harmonics = range(-n_harmonics, n_harmonics + 1)
    for idx, f in enumerate(freqs):
        total = 0.0
        tail_power = 0.0
        for k in harmonics:
            omega_image = 2.0 * np.pi * (f - k * f_clock)
            band = 0.0
            for i in range(n_sources):
                envelope = periodic_envelope(disc, omega_image, i)
                coeff = fourier_coefficients(envelope, disc.period, [k])[k]
                band += abs(complex(l_row @ coeff)) ** 2
            total += band
            if abs(k) == n_harmonics:
                tail_power += band
        psd[idx] = total
        # Estimate the *remaining* (un-summed) folded power assuming the
        # outermost bands decay no faster than 1/k²: remaining ≈ band_K·K.
        # A plain band_K/total check is deceptive when thousands of
        # images contribute (wideband op-amp noise folding).
        tail[idx] = (tail_power * n_harmonics / total
                     if total > 0.0 else 0.0)
    worst_tail = float(tail.max()) if tail.size else 0.0
    if worst_tail > tail_tol:
        logger.warning("HTF tail not converged: %.3g > %.3g with %d "
                       "harmonics", worst_tail, tail_tol, n_harmonics)
        raise ConvergenceError(
            "harmonic folding not converged: the estimated un-summed "
            f"image power is {worst_tail:.3g} of the total "
            f"(> {tail_tol}). Raise n_harmonics — wideband noise folds "
            "O(bandwidth/f_clock) images, which is exactly the cost the "
            "time-domain engine avoids.", residual=worst_tail)
    return PsdResult(
        frequencies=freqs, psd=psd, method="htf",
        output=getattr(system, "output_names", [""])[output_row],
        info={"n_harmonics": n_harmonics, "worst_tail": worst_tail})
