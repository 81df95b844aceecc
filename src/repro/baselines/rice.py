"""Closed-form noise PSD of the periodically switched RC circuit.

Rice (1970) derived the response of periodically varying systems to noise
and applied it to exactly this circuit; the paper's Fig. 3 compares its
engine to Rice's expressions. The published expressions are not available
verbatim here, so this module derives the *same closed form* analytically
(geometric-series solution of the two-segment piecewise-exponential
system) rather than numerically — every quantity below is an explicit
formula, evaluated without any ODE integration, matrix exponential or
linear-system solve, which makes it an arithmetic-level cross-check of
the numerical engines.

Derivation sketch. In periodic steady state the variance is constant,
``K = kT/C`` (both phases hold ``dK/dt = 0`` at that value). The factored
cross-spectral envelope ``q`` obeys scalar linear ODEs with constant
forcing ``K``:

* track (length ``t1 = dT``):  ``dq/dt = −(a + jω) q + K``
* hold (length ``t2 = (1−d)T``): ``dq/dt = −jω q + K``

whose piecewise-exponential solution and periodicity condition give
``q(0)`` in closed form; the averaged PSD is the explicit integral
``S̄(ω) = (2/T) Re ∫_0^T q dt``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..units import BOLTZMANN

#: Below this ``|z t|`` the series of ``φ1`` replaces the closed form,
#: whose ``expm1(−zt)/z`` loses digits as ``z → 0``.
PHI1_SERIES_LIMIT = 1e-8
#: Below this ``|z t|`` the series of ``φ2`` replaces the closed form,
#: whose ``t − φ1`` cancels; three terms keep it to rounding there.
PHI2_SERIES_LIMIT = 1e-6


def _phi1(z, t):
    """Stable ``(1 − e^{−z t}) / z`` with the z→0 limit ``t``."""
    zt = z * t
    if abs(zt) < PHI1_SERIES_LIMIT:
        # Series: t (1 - zt/2 + (zt)^2/6)
        return t * (1.0 - zt / 2.0 + zt * zt / 6.0)
    return -np.expm1(-zt) / z


def _phi2(z, t):
    """Stable ``(t − φ1(z, t)) / z`` with the z→0 limit ``t²/2``."""
    zt = z * t
    if abs(zt) < PHI2_SERIES_LIMIT:
        return t * t * (0.5 - zt / 6.0 + zt * zt / 24.0)
    return (t - _phi1(z, t)) / z


def rice_switched_rc_variance(params):
    """Steady-state output variance: the constant ``kT/C``."""
    return BOLTZMANN * params.temperature / params.capacitance


def rice_switched_rc_psd(params, frequencies):
    """Closed-form averaged double-sided output PSD [V²/Hz].

    ``params`` is a :class:`~repro.circuits.switched_rc.SwitchedRcParams`;
    ``frequencies`` is an array of analysis frequencies in Hz (``f >= 0``).
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if np.any(freqs < 0.0):
        raise ReproError("frequencies must be non-negative")
    a = 1.0 / params.tau
    t1 = params.duty * params.period
    t2 = (1.0 - params.duty) * params.period
    period = params.period
    variance = rice_switched_rc_variance(params)

    psd = np.empty_like(freqs)
    for idx, f in enumerate(freqs):
        omega = 2.0 * np.pi * f
        alpha = a + 1j * omega
        beta = 1j * omega
        e1 = np.exp(-alpha * t1)
        e2 = np.exp(-beta * t2)
        denom = 1.0 - e1 * e2
        q0 = (variance * (e2 * _phi1(alpha, t1) + _phi1(beta, t2))
              / denom)
        q1 = e1 * q0 + variance * _phi1(alpha, t1)
        integral_track = q0 * _phi1(alpha, t1) + variance * _phi2(alpha, t1)
        integral_hold = q1 * _phi1(beta, t2) + variance * _phi2(beta, t2)
        psd[idx] = 2.0 / period * np.real(integral_track + integral_hold)
    return psd


def rice_track_only_psd(params, frequencies):
    """Double-sided PSD (V²/Hz) of the un-switched (always-tracking) RC.

    The d→1 limit: the textbook Lorentzian ``2kTR / (1 + (ωRC)²)``
    (double-sided). Used to check the duty-cycle limits of the closed
    form and of the numerical engines.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    omega_tau = 2.0 * np.pi * freqs * params.tau
    return (2.0 * BOLTZMANN * params.temperature * params.resistance
            / (1.0 + omega_tau ** 2))


def rice_sampled_data_limit_psd(params, frequencies):
    """Sample-and-hold component of the switched RC spectrum.

    Double-sided PSD in V²/Hz.

    The held portion of the output is a zero-order hold of duration
    ``t2 = (1−d)T`` applied to the sampled sequence ``x_n = V(nT + dT)``,
    whose samples have variance ``kT/C`` and lag-one correlation
    ``ρ = e^{−t1/τ}``. Standard sampled-data theory gives its PSD as

        S(f) = (t2²/T) sinc²(f t2) · (kT/C)(1−ρ²) / |1 − ρ e^{−j2πfT}|²

    This is the "sampled-data-like" part of the spectrum the paper's
    Fig. 3 discussion refers to: when the switch is open for many time
    constants this term dominates and the full closed form
    (:func:`rice_switched_rc_psd`) approaches it; the tests assert both
    that limit and its breakdown for short hold phases.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    variance = rice_switched_rc_variance(params)
    t1 = params.duty * params.period
    t2 = (1.0 - params.duty) * params.period
    period = params.period
    rho = np.exp(-t1 / params.tau)
    discrete = (variance * (1.0 - rho ** 2)
                / (1.0 - 2.0 * rho * np.cos(2.0 * np.pi * freqs * period)
                   + rho ** 2))
    hold_shape = (t2 ** 2 / period) * np.sinc(freqs * t2) ** 2
    return hold_shape * discrete
