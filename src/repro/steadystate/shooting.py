"""Shooting methods for nonlinear periodic steady states.

Both solvers integrate the circuit ODE with a tight-tolerance adaptive
integrator and apply Newton's method to the period-map residual
``x(T; x0) − x0``; the Jacobian (monodromy) is formed column-by-column by
finite differences, which is robust and cheap at the 2–3 state sizes of
the extension circuits. The returned :class:`PeriodicOrbit` carries a
dense solution usable as the linearisation trajectory.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..diagnostics.report import DiagnosticsReport
from ..errors import ConvergenceError, SingularMatrixError
from ..linalg.checked import checked_solve
from ..tolerances import (
    SHOOTING_AUTONOMOUS_TOL,
    SHOOTING_DERIVATIVE_STEP_REL,
    SHOOTING_FD_NORM_FLOOR,
    SHOOTING_FD_SCALE_FLOOR,
    SHOOTING_FD_STEP_FLOOR,
    SHOOTING_FORCED_TOL,
    SHOOTING_IVP_ATOL,
    SHOOTING_IVP_RTOL,
    SHOOTING_RELAX_RTOL_CAP,
)

logger = logging.getLogger(__name__)


@dataclass
class PeriodicOrbit:
    """A converged periodic large-signal solution."""

    period: float
    times: np.ndarray
    states: np.ndarray
    residual: float

    def __call__(self, t):
        """Evaluate the orbit at time ``t`` (wrapped into the period)."""
        tau = np.mod(np.asarray(t, dtype=float), self.period)
        out = np.empty(np.shape(tau) + (self.states.shape[1],))
        for col in range(self.states.shape[1]):
            out[..., col] = np.interp(tau, self.times,
                                      self.states[:, col])
        return out

    def derivative(self, t):
        """Centred-difference time derivative of the orbit at ``t``."""
        eps = SHOOTING_DERIVATIVE_STEP_REL * self.period
        return (self(t + eps) - self(t - eps)) / (2.0 * eps)

    def fundamental_amplitude(self, state_index=0):
        """|Fourier coefficient| of the fundamental of one state."""
        phase = np.exp(-2j * np.pi * self.times / self.period)
        weights = np.gradient(self.times)
        coeff = np.sum(self.states[:, state_index] * phase * weights) \
            / self.period
        return 2.0 * abs(coeff)

    def zero_crossing_slew(self, state_index=0):
        """Mean |dx/dt| at the rising zero crossings of one state.

        This is the ``S`` of the paper's phase-noise parameter
        ``c = B/S²``.
        """
        x = self.states[:, state_index] - np.mean(self.states[:,
                                                              state_index])
        slews = []
        for k in range(len(x) - 1):
            if x[k] < 0.0 <= x[k + 1]:
                dt = self.times[k + 1] - self.times[k]
                slews.append((x[k + 1] - x[k]) / dt)
        if not slews:
            raise ConvergenceError(
                "no zero crossings found on the periodic orbit")
        return float(np.mean(slews))


def _integrate(fun, x0, t_span, dense_points, rtol, atol):
    if not np.all(np.isfinite(x0)):
        raise ConvergenceError(
            f"shooting state became non-finite: {x0}")
    import scipy.integrate
    sol = scipy.integrate.solve_ivp(
        fun, t_span, x0, method="Radau", rtol=rtol, atol=atol,
        dense_output=True)
    if not sol.success:
        raise ConvergenceError(
            f"large-signal integration failed: {sol.message}")
    times = np.linspace(t_span[0], t_span[1], dense_points)
    states = sol.sol(times).T
    if not np.all(np.isfinite(states)):
        raise ConvergenceError("trajectory escaped to non-finite values")
    return times, states


def _cap_newton_step(delta, x0):
    """Trust-region cap: a Newton step far outside the current orbit
    scale signals a bad local model (e.g. a trajectory near finite-time
    blow-up) and is shortened instead of taken at full length."""
    if not np.all(np.isfinite(delta)):
        raise ConvergenceError("Newton step is non-finite")
    limit = 5.0 * (1.0 + float(np.linalg.norm(x0)))
    norm = float(np.linalg.norm(delta))
    if norm > limit:
        return delta * (limit / norm)
    return delta


def forced_steady_state(fun, period, x0_guess, max_iter=30,
                        tol=SHOOTING_FORCED_TOL, dense_points=1025,
                        rtol=SHOOTING_IVP_RTOL, atol=SHOOTING_IVP_ATOL,
                        transient_periods=20):
    """Periodic steady state of ``dx/dt = f(t, x)`` with known period.

    ``fun(t, x)`` must be T-periodic in ``t``. A free transient of
    ``transient_periods`` periods first relaxes the guess onto the
    attractor (dissipative driven circuits converge geometrically, and
    Newton from a cold start can diverge violently on strongly nonlinear
    systems); Newton shooting with a finite-difference monodromy then
    polishes. Raises :class:`~repro.errors.ConvergenceError` on failure.
    """
    x0 = np.atleast_1d(np.asarray(x0_guess, dtype=float))
    n = x0.size
    if transient_periods > 0:
        import scipy.integrate
        sol = scipy.integrate.solve_ivp(
            fun, (0.0, transient_periods * period), x0, method="Radau",
            rtol=min(SHOOTING_RELAX_RTOL_CAP, rtol * 1e3),
            atol=np.sqrt(atol))
        if sol.success and np.all(np.isfinite(sol.y[:, -1])):
            x0 = sol.y[:, -1]
        else:
            logger.warning("forced shooting: relaxation transient failed "
                           "(%s); starting Newton from the raw guess",
                           getattr(sol, "message", "non-finite state"))
    residual_history = []
    for iteration in range(max_iter):
        times, states = _integrate(fun, x0, (0.0, period), dense_points,
                                   rtol, atol)
        x_end = states[-1]
        residual = x_end - x0
        res_norm = float(np.linalg.norm(residual, np.inf))
        residual_history.append(res_norm)
        scale = 1.0 + float(np.linalg.norm(x0, np.inf))
        if res_norm <= tol * scale:
            logger.debug("forced shooting converged in %d iterations "
                         "(residual %.3g)", iteration + 1, res_norm)
            return PeriodicOrbit(period=period, times=times,
                                 states=states, residual=res_norm)
        monodromy = _fd_monodromy(fun, x0, period, x_end, rtol, atol)
        delta = checked_solve(monodromy - np.eye(n), -residual,
                              context="forced shooting Newton step")
        x0 = x0 + _cap_newton_step(delta, x0)
    report = DiagnosticsReport(context="forced shooting")
    report.error("shooting-stalled",
                 f"Newton residual stalled at {res_norm:.3g} after "
                 f"{max_iter} iterations",
                 residual_history=residual_history)
    logger.warning("forced shooting failed: residuals %s",
                   residual_history[-3:])
    raise ConvergenceError(
        f"forced shooting did not converge in {max_iter} iterations "
        f"(residual {res_norm:.3g})", iterations=max_iter,
        residual=res_norm).attach_diagnostics(report)


def autonomous_steady_state(fun, x0_guess, period_guess, anchor_index=0,
                            max_iter=50, tol=SHOOTING_AUTONOMOUS_TOL,
                            dense_points=2049, rtol=SHOOTING_IVP_RTOL,
                            atol=SHOOTING_IVP_ATOL):
    """Periodic orbit of an autonomous system with unknown period.

    Unknowns are ``(x0, T)``; the extra degree of freedom (time
    translation of the orbit) is removed by the classic phase anchor:
    the ``anchor_index`` component of ``f(0, x0)`` must vanish, which
    pins the orbit to start at an extremum of that state. Newton runs on
    the stacked residual ``[x(T; x0) − x0, f(0, x0)[anchor_index]]``.
    """
    x0 = np.atleast_1d(np.asarray(x0_guess, dtype=float))
    n = x0.size
    period = float(period_guess)
    for iteration in range(max_iter):
        times, states = _integrate(fun, x0, (0.0, period), dense_points,
                                   rtol, atol)
        x_end = states[-1]
        # Scale the anchor (units: state/time) by the period so all
        # residual entries share the state's units — otherwise the
        # anchor row dominates both the norm and the Newton step.
        anchor = period * np.atleast_1d(
            np.asarray(fun(0.0, x0)))[anchor_index]
        residual = np.concatenate([x_end - x0, [anchor]])
        res_norm = float(np.linalg.norm(residual, np.inf))
        scale = 1.0 + float(np.linalg.norm(x0, np.inf))
        if res_norm <= tol * scale:
            return PeriodicOrbit(period=period, times=times,
                                 states=states, residual=res_norm)
        jac = np.zeros((n + 1, n + 1))
        monodromy = _fd_monodromy(fun, x0, period, x_end, rtol, atol)
        jac[:n, :n] = monodromy - np.eye(n)
        jac[:n, n] = np.atleast_1d(np.asarray(fun(period, x_end)))
        eps = max(np.sqrt(rtol) * 10.0, SHOOTING_FD_STEP_FLOOR)
        for k in range(n):
            dx = eps * max(abs(x0[k]), SHOOTING_FD_SCALE_FLOOR)
            xp = x0.copy()
            xp[k] += dx
            jac[n, k] = (period * np.atleast_1d(np.asarray(
                fun(0.0, xp)))[anchor_index] - anchor) / dx
        jac[n, n] = anchor / period
        try:
            delta = checked_solve(jac, -residual,
                                  context="autonomous shooting Newton step")
        except SingularMatrixError as exc:
            raise ConvergenceError(
                "autonomous shooting Jacobian is singular — the anchor "
                "component may be constant on the orbit; try another "
                "anchor_index") from exc
        # Damp aggressive period updates to keep T positive.
        delta[:n] = _cap_newton_step(delta[:n], x0)
        step = 1.0
        while period + step * delta[n] <= 0.1 * period:
            step *= 0.5
        x0 = x0 + step * delta[:n]
        period = period + step * delta[n]
    report = DiagnosticsReport(context="autonomous shooting")
    report.error("shooting-stalled",
                 f"Newton residual stalled at {res_norm:.3g} after "
                 f"{max_iter} iterations (period estimate "
                 f"{period:.6g} s)",
                 residual=res_norm, period=float(period))
    logger.warning("autonomous shooting failed: residual %.3g, period "
                   "%.6g", res_norm, period)
    raise ConvergenceError(
        f"autonomous shooting did not converge in {max_iter} iterations "
        f"(residual {res_norm:.3g})", iterations=max_iter,
        residual=res_norm).attach_diagnostics(report)


def _fd_monodromy(fun, x0, period, x_end, rtol, atol):
    """Finite-difference monodromy matrix ∂x(T)/∂x0.

    The step must sit well above the integrator's own error floor
    (otherwise the Jacobian is noise), so it scales with √rtol of the
    trajectory rather than with machine epsilon.
    """
    n = x0.size
    monodromy = np.zeros((n, n))
    scale = max(float(np.linalg.norm(x0, np.inf)), SHOOTING_FD_NORM_FLOOR)
    eps = max(np.sqrt(rtol) * 10.0, SHOOTING_FD_STEP_FLOOR)
    for k in range(n):
        dx = eps * scale
        xp = x0.copy()
        xp[k] += dx
        _times, states = _integrate(fun, xp, (0.0, period), 3, rtol, atol)
        monodromy[:, k] = (states[-1] - x_end) / dx
    return monodromy
