"""General MFT collocation: J sample cycles + frequency-domain delay.

This is the textbook mixed-frequency-time formulation (Kundert, White,
Sangiovanni-Vincentelli): integrate *in the time domain* across single
clock cycles, and couple the cycle boundaries *in the frequency domain* of
the slow tone(s). For the noise problem the cycle map is affine,

    v_{m+1} = Phi v_m + g(θ_m),    θ_m = ω_s m T  (slow phase),

with the cycle forcing ``g`` known by its slow-tone Fourier coefficients
``g(θ) = Σ_h ĝ_h e^{jhθ}``. The envelope ansatz ``v(θ) = Σ_h c_h e^{jhθ}``
collocated at J distinct slow phases gives the block-linear system

    (D(T) ⊗ I_n − I_J ⊗ Phi) V = G

where ``D(T)`` is the delay matrix of :mod:`repro.mft.delay`. For a single
slow tone this reduces to the specialised fixed point used by
:class:`repro.mft.engine.MftNoiseAnalyzer` — the tests verify the two
paths agree to machine precision — while the general machinery also
handles multi-harmonic envelopes (e.g. noise forcing with several analysis
tones at once).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError, SingularMatrixError
from ..linalg.checked import checked_solve, condition_number
from ..tolerances import MFT_COLLOCATION_COND_LIMIT
from .delay import choose_sample_phases, delay_matrix, idft_matrix

logger = logging.getLogger(__name__)


@dataclass
class MftCollocationProblem:
    """An affine MFT boundary-value problem over sample cycles.

    Parameters
    ----------
    cycle_map:
        The one-cycle state propagator ``Phi`` (n×n, may be complex).
    forcing_coefficients:
        Mapping ``h -> ĝ_h`` (n-vectors): slow-tone Fourier coefficients
        of the per-cycle forcing.
    omega_slow:
        Slow tone ω_s [rad/s].
    period:
        Clock period T [s].
    harmonics:
        Envelope harmonics to retain, e.g. ``(-1, 0, 1)``. Every forcing
        harmonic must be included.
    sample_phases:
        Slow phases of the J sample cycles; defaults to equispaced.
    """

    cycle_map: np.ndarray
    forcing_coefficients: dict
    omega_slow: float
    period: float
    harmonics: tuple = (-1, 0, 1)
    sample_phases: np.ndarray | None = None

    def __post_init__(self):
        self.cycle_map = np.asarray(self.cycle_map, dtype=complex)
        n = self.cycle_map.shape[0]
        if self.cycle_map.shape != (n, n):
            raise ReproError("cycle map must be square")
        self.harmonics = tuple(int(h) for h in self.harmonics)
        if len(set(self.harmonics)) != len(self.harmonics):
            raise ReproError(f"duplicate harmonics: {self.harmonics}")
        for h in self.forcing_coefficients:
            if int(h) not in self.harmonics:
                raise ReproError(
                    f"forcing harmonic {h} not in envelope harmonics "
                    f"{self.harmonics}")
        if self.sample_phases is None:
            self.sample_phases = choose_sample_phases(self.harmonics)
        self.sample_phases = np.asarray(self.sample_phases, dtype=float)
        if self.sample_phases.size != len(self.harmonics):
            raise ReproError(
                "need exactly one sample cycle per envelope harmonic")

    @property
    def n_states(self):
        return self.cycle_map.shape[0]


@dataclass
class MftCollocationSolution:
    """Solution of an MFT collocation problem."""

    coefficients: dict
    samples: np.ndarray
    sample_phases: np.ndarray
    harmonics: tuple = field(default_factory=tuple)

    def envelope(self, theta):
        """Evaluate the envelope ``v(θ)`` from its Fourier coefficients."""
        total = np.zeros_like(next(iter(self.coefficients.values())))
        for h, c in self.coefficients.items():
            total = total + c * np.exp(1j * h * float(theta))
        return total


def solve_mft_collocation(problem):
    """Solve the affine MFT collocation system.

    Returns an :class:`MftCollocationSolution` with the envelope Fourier
    coefficients ``c_h`` and the envelope samples at the sample cycles.
    """
    n = problem.n_states
    j = len(problem.harmonics)
    phases = problem.sample_phases
    delay = delay_matrix(phases, problem.harmonics, 1.0,
                         problem.omega_slow * problem.period)
    # Note: delay_matrix(phases, harmonics, omega_slow, tau) shifts the slow
    # phase by omega_slow*tau; passing (1.0, ω_s T) keeps the phase shift
    # ω_s T while letting `phases` stay dimensionless slow phases.

    big = np.kron(delay, np.eye(n)) - np.kron(np.eye(j), problem.cycle_map)
    cond = condition_number(big)
    if not np.isfinite(cond) or cond > MFT_COLLOCATION_COND_LIMIT:
        logger.warning("MFT collocation system singular: cond = %.3g",
                       cond)
        raise SingularMatrixError(
            "MFT collocation system is singular — a slow-tone harmonic "
            "coincides with a Floquet multiplier of the cycle map "
            f"(condition number {cond:.3g})")
    rhs = np.zeros(j * n, dtype=complex)
    for idx, theta in enumerate(phases):
        g = np.zeros(n, dtype=complex)
        for h, coeff in problem.forcing_coefficients.items():
            g = g + np.asarray(coeff, dtype=complex) * np.exp(
                1j * int(h) * theta)
        rhs[idx * n:(idx + 1) * n] = g
    solution = checked_solve(
        big, rhs,
        context="MFT collocation system (a slow-tone harmonic coincides "
                "with a Floquet multiplier of the cycle map)")
    samples = solution.reshape(j, n)
    f_inv = idft_matrix(phases, problem.harmonics)
    coeff_mat = f_inv @ samples
    coefficients = {h: coeff_mat[k]
                    for k, h in enumerate(problem.harmonics)}
    return MftCollocationSolution(coefficients=coefficients,
                                  samples=samples, sample_phases=phases,
                                  harmonics=problem.harmonics)


def cycle_forcing_coefficient(disc, omega, forcing_pairs):
    """Fourier coefficient ``ĝ_1`` of the per-cycle cross-spectral forcing.

    For the (unfactored) cross-spectral equation the forcing over the
    cycle starting at slow phase θ is ``e^{jθ} ĝ`` with

        ĝ = ∫_0^T Phi(T, s) k(s) e^{jωs} ds

    computed here with the same segment-trapezoid quadrature as the
    specialised engine, so the two paths agree to rounding.
    """
    n = disc.n_states
    forcing = np.asarray(forcing_pairs)
    if forcing.shape != (len(disc.segments), 2, n):
        raise ReproError(
            f"forcing must have shape ({len(disc.segments)}, 2, {n})")
    g_acc = np.zeros(n, dtype=complex)
    t = 0.0
    for k, seg in enumerate(disc.segments):
        h = seg.duration
        phase_left = np.exp(1j * omega * t)
        phase_right = np.exp(1j * omega * (t + h))
        step = 0.5 * h * (seg.phi @ (forcing[k, 0] * phase_left)
                          + forcing[k, 1] * phase_right)
        g_acc = seg.phi @ g_acc + step
        if seg.jump is not None:
            g_acc = seg.jump @ g_acc
        t += h
    return g_acc


def mft_envelope_via_collocation(disc, omega, forcing_pairs,
                                 extra_harmonics=1):
    """Cross-spectral envelope via the *general* MFT machinery.

    Builds the one-cycle map and forcing coefficient, solves the
    collocation system with harmonics ``-extra..+extra`` (all but ``h=1``
    should come back numerically zero for single-tone forcing), and
    returns the ``h=1`` envelope coefficient — which equals the
    specialised engine's ``q(0)``.
    """
    phi_t = disc.monodromy().astype(complex)
    g_hat = cycle_forcing_coefficient(disc, omega, forcing_pairs)
    harmonics = tuple(range(-int(extra_harmonics), int(extra_harmonics) + 1))
    if 1 not in harmonics:
        raise ReproError("harmonic 1 must be included")
    problem = MftCollocationProblem(
        cycle_map=phi_t, forcing_coefficients={1: g_hat},
        omega_slow=omega, period=disc.period, harmonics=harmonics)
    solution = solve_mft_collocation(problem)
    return solution
