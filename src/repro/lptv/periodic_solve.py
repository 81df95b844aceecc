"""Periodic steady state of forced linear systems over one period.

The workhorse shared by the MFT noise engine and the harmonic-transfer
baseline: given a period discretization and a periodic forcing, find the
unique periodic solution of

    dv/dt = (A(t) − jω I) v + f(t)

by composing the per-segment affine maps into a one-period affine map
``v(T) = M v(0) + g`` and solving the fixed point ``v(0) = (I − M)^{-1} g``.
This single linear solve replaces the hundreds of transient clock cycles
of the brute-force method — it *is* the steady-state computation the DAC
2003 paper contributes.

Per-segment steps are *exact* for forcing that is linear in time inside
the segment (matrix φ-functions, :mod:`repro.linalg.phi`), and the period
quadrature of the solution uses the derivative-corrected trapezoidal rule
(Euler–Maclaurin), so piecewise-LTI systems with slowly varying forcing
are resolved far beyond the naive O(h²) of plain trapezoids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError, SingularMatrixError
from ..linalg.checked import checked_solve
from ..linalg.lyapunov import (
    fixed_point_condition,
    solve_linear_fixed_point,
    solve_regularized_fixed_point,
)
from ..linalg.phi import affine_step_integrals
from ..tolerances import FIXED_POINT_RIDGE, RESOLVENT_NORM_THRESHOLD

logger = logging.getLogger(__name__)


@dataclass
class PeriodicSolution:
    """Periodic steady-state trace of a forced linear system.

    ``post[k]`` is the solution at ``grid[k]`` *after* any jump applied
    there; ``pre[k]`` the value before the jump. For segment boundaries
    without a jump the two coincide. ``grid`` has one more entry than
    there are segments; by periodicity ``post[-1] == post[0]``.
    ``dpost[k]`` / ``dpre[k]`` are the corresponding one-sided time
    derivatives; ``integral`` is the exact per-period integral of the
    trace computed during propagation (see ``periodic_steady_state``).
    """

    grid: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    dpre: np.ndarray
    dpost: np.ndarray
    integral: np.ndarray | None = None
    #: 2-norm condition number of the fixed-point system ``I − M``
    #: (``None`` when the solver did not estimate it).
    condition: float | None = None
    #: Solver that produced ``v(0)`` ("direct" or "lstsq").
    solver: str = "direct"

    def integrate_dot(self):
        """Integral of the trace over one period.

        Uses the exact per-segment integral accumulated during
        propagation when available (the default path — exact for
        piecewise-linear forcing regardless of segment stiffness);
        otherwise falls back to the derivative-corrected trapezoid.
        """
        if self.integral is not None:
            return self.integral
        total = np.zeros(self.pre.shape[1], dtype=self.pre.dtype)
        for k in range(len(self.grid) - 1):
            h = self.grid[k + 1] - self.grid[k]
            total = total + 0.5 * h * (self.post[k] + self.pre[k + 1]) \
                + h * h / 12.0 * (self.dpost[k] - self.dpre[k + 1])
        return total


class _SegmentStepper:
    """Caches the (Φ_ω, I1, I2) triple per unique segment matrix."""

    def __init__(self, disc, omega):
        self.disc = disc
        self.omega = omega
        self._cache = {}

    def integrals(self, seg):
        # Exact (A, duration) key: independent of the kernel's shared-Φ groups.
        key = (id(seg.a_matrix), seg.duration)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if seg.a_matrix is None:
            raise ReproError(
                "segment is missing its A matrix; rebuild the "
                "discretization with a current version of the library")
        n = self.disc.n_states
        a_shifted = seg.a_matrix.astype(complex) \
            - 1j * self.omega * np.eye(n)
        phi_shifted = np.exp(-1j * self.omega * seg.duration) * seg.phi
        triple = affine_step_integrals(a_shifted, seg.duration,
                                       phi=phi_shifted)
        self._cache[key] = triple
        return triple


def forcing_from_samples(disc, samples_post, samples_pre=None):
    """Normalise a forcing specification to per-segment endpoint pairs.

    ``samples_post[k]`` is the forcing at ``grid[k]`` (post-jump side);
    ``samples_pre[k]``, when given, the pre-jump side used as the right
    endpoint of segment ``k-1``. Returns an ``(S, 2, n)`` array.
    """
    samples_post = np.asarray(samples_post)
    n_seg = disc.n_segments
    if samples_post.shape[0] != n_seg + 1:
        raise ReproError(
            f"forcing has {samples_post.shape[0]} samples for "
            f"{n_seg + 1} grid points")
    if samples_pre is None:
        samples_pre = samples_post
    else:
        samples_pre = np.asarray(samples_pre)
    out = np.empty((n_seg, 2) + samples_post.shape[1:],
                   dtype=np.promote_types(samples_post.dtype, complex))
    out[:, 0] = samples_post[:n_seg]
    out[:, 1] = samples_pre[1:n_seg + 1]
    return out


def periodic_steady_state(disc, omega, segment_forcing, solver="direct",
                          ridge=FIXED_POINT_RIDGE, condition_limit=None):
    """Solve the periodic steady state of ``dv/dt = (A−jω)v + f``.

    Parameters
    ----------
    disc : PeriodDiscretization
    omega : float
        Frequency shift ω [rad/s]; 0 gives the unshifted dynamics.
    segment_forcing : (S, 2, n) array
        ``segment_forcing[k, 0]`` is ``f`` at the start of segment ``k``,
        ``segment_forcing[k, 1]`` at its end (pre-jump side); ``f`` is
        treated as linear in time inside each segment.
    solver : {"direct", "lstsq"}
        ``"direct"`` solves ``(I − M) v0 = g`` exactly; ``"lstsq"`` uses
        the Tikhonov-regularized least squares of
        :func:`~repro.linalg.lyapunov.solve_regularized_fixed_point` —
        the graceful-degradation path for near-singular fixed points.
    ridge : float
        Relative regularization of the ``"lstsq"`` solver.
    condition_limit : float, optional
        When given, a *direct* solve whose ``cond(I − M)`` exceeds the
        limit raises :class:`~repro.errors.SingularMatrixError` instead
        of returning a rounding-dominated answer — this is the
        ill-conditioning trigger of the fallback chain.

    Returns
    -------
    PeriodicSolution
        With ``condition`` and ``solver`` recording the fixed point's
        numerical health.
    """
    n = disc.n_states
    forcing = np.asarray(segment_forcing)
    if forcing.shape != (len(disc.segments), 2, n):
        raise ReproError(
            f"segment forcing must have shape "
            f"({len(disc.segments)}, 2, {n}), got {forcing.shape}")
    stepper = _SegmentStepper(disc, omega)

    # Compose the one-period affine map v(T^+) = m_acc v(0^+) + g_acc.
    m_acc = np.eye(n, dtype=complex)
    g_acc = np.zeros(n, dtype=complex)
    step_g = []
    for k, seg in enumerate(disc.segments):
        phi, i1, i2 = stepper.integrals(seg)
        h = seg.duration
        slope = (forcing[k, 1] - forcing[k, 0]) / h
        g_seg = i1 @ forcing[k, 0] + i2 @ slope
        step_g.append(g_seg)
        m_acc = phi @ m_acc
        g_acc = phi @ g_acc + g_seg
        if seg.jump is not None:
            jump = seg.jump.astype(complex)
            m_acc = jump @ m_acc
            g_acc = jump @ g_acc

    condition = fixed_point_condition(m_acc)
    if solver == "direct":
        if condition_limit is not None and condition > condition_limit:
            logger.info(
                "direct periodic solve rejected at omega=%.6g: "
                "cond(I - M) = %.3g > %.3g", omega, condition,
                condition_limit)
            raise SingularMatrixError(
                f"fixed-point system (I - M) is ill-conditioned: "
                f"cond = {condition:.3g} exceeds limit "
                f"{condition_limit:.3g} at omega = {omega:.6g} rad/s")
        v0 = solve_linear_fixed_point(m_acc, g_acc)
    elif solver == "lstsq":
        v0 = solve_regularized_fixed_point(m_acc, g_acc, ridge=ridge)
    else:
        raise ReproError(f"unknown periodic solver {solver!r}; "
                         "expected 'direct' or 'lstsq'")

    # Propagate once through the period to record the full trace and
    # accumulate the exact period integral of v. Per segment,
    #     A_ω ∫v dt = v(end) − v(start) − ∫f dt,
    # and ∫f dt = h (f0 + f1)/2 exactly for the piecewise-linear
    # forcing, so the integral needs only one linear solve — and is
    # immune to boundary-layer transients inside stiff segments. When
    # A_ω is (near-)singular (‖A_ω‖h small) the derivative-corrected
    # trapezoid is used instead, which is exact there because v is then
    # polynomial to high order.
    grid = disc.grid
    pre = np.zeros((len(grid), n), dtype=complex)
    post = np.zeros((len(grid), n), dtype=complex)
    dpre = np.zeros((len(grid), n), dtype=complex)
    dpost = np.zeros((len(grid), n), dtype=complex)
    integral = np.zeros(n, dtype=complex)
    pre[0] = v0
    post[0] = v0
    v = v0
    eye = np.eye(n)
    for k, seg in enumerate(disc.segments):
        phi, _i1, _i2 = stepper.integrals(seg)
        h = seg.duration
        a_shifted = seg.a_matrix.astype(complex) - 1j * omega * eye
        v_start = v
        dpost[k] = a_shifted @ v + forcing[k, 0]
        v = phi @ v + step_g[k]
        pre[k + 1] = v
        dpre[k + 1] = a_shifted @ v + forcing[k, 1]
        f_int = 0.5 * h * (forcing[k, 0] + forcing[k, 1])
        if np.linalg.norm(a_shifted, 1) * h > RESOLVENT_NORM_THRESHOLD:
            try:
                integral = integral + checked_solve(
                    a_shifted, v - v_start - f_int,
                    context="segment integral resolvent")
            except SingularMatrixError:
                integral = integral + _corrected_trapezoid(
                    h, v_start, v, dpost[k], dpre[k + 1])
        else:
            integral = integral + _corrected_trapezoid(
                h, v_start, v, dpost[k], dpre[k + 1])
        if seg.jump is not None:
            v = seg.jump @ v
        post[k + 1] = v
    dpost[-1] = dpost[0]
    return PeriodicSolution(grid=grid, pre=pre, post=post,
                            dpre=dpre, dpost=dpost, integral=integral,
                            condition=condition, solver=solver)


def _corrected_trapezoid(h, v_left, v_right, dv_left, dv_right):
    return (0.5 * h * (v_left + v_right)
            + h * h / 12.0 * (dv_left - dv_right))
