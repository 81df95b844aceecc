"""Time-varying noise covariance of an LPTV system.

The covariance ``K(t) = E{x_n x_n^T}`` obeys the Lyapunov ODE (companion
draft eq. (16))::

    dK/dt = A(t) K + K A(t)^T + B(t) B(t)^T

with ``K -> M K M^T`` across instantaneous charge-redistribution jumps.
On a period discretization the exact per-segment update is

    K(t_{k+1}) = Phi_k K(t_k) Phi_k^T + Q_k

so the *periodic steady state* is the discrete Lyapunov fixed point of the
one-period map — one linear solve instead of integrating dozens of clock
cycles. Both the transient propagation (for convergence studies and the
brute-force baseline) and the steady state are provided.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..diagnostics.report import DiagnosticsReport
from ..errors import ReproError, StabilityError
from ..linalg.lyapunov import (
    solve_continuous_lyapunov,
    solve_discrete_lyapunov,
)
from ..linalg.checked import eigenvalues
from ..linalg.packing import symmetrize
from ..lptv.discretization import accumulate_period_gramian

logger = logging.getLogger(__name__)


@dataclass
class PeriodicCovariance:
    """Steady-state covariance sampled on one period.

    ``post[k]``/``pre[k]`` are the covariance at ``grid[k]`` after/before
    any jump at that instant (identical where no jump exists). By
    periodicity ``post[-1] == post[0]``.
    """

    grid: np.ndarray
    pre: np.ndarray
    post: np.ndarray
    period: float

    @property
    def n_states(self):
        return self.post.shape[1]

    def variance(self, state_index):
        """Variance trace of one state over the period (post-jump)."""
        return self.post[:, state_index, state_index].real.copy()

    def output_variance(self, l_row):
        """Variance trace of the output ``y = l^T x``."""
        l_row = np.asarray(l_row, dtype=float)
        return np.einsum("i,kij,j->k", l_row, self.post, l_row).real

    def average_output_variance(self, l_row):
        """Period-averaged output variance (trapezoid over the grid)."""
        trace = self.output_variance(np.asarray(l_row, dtype=float))
        return float(np.trapezoid(trace, self.grid) / self.period)

    def forcing_samples(self, l_row):
        """``K(t) l`` at the grid points, the cross-spectral forcing.

        Returns ``(post_samples, pre_samples)`` each of shape
        ``(len(grid), n)``; these feed straight into
        :func:`repro.lptv.periodic_solve.forcing_from_samples`.
        """
        l_row = np.asarray(l_row, dtype=float)
        return self.post @ l_row, self.pre @ l_row


def periodic_covariance(system_or_disc, segments_per_phase=64):
    """Periodic steady-state covariance of a stable switched system.

    Raises :class:`~repro.errors.StabilityError` for an unstable system;
    the error carries the Floquet ``multipliers`` and a diagnostics
    report so the failing mode is identifiable without re-running.
    """
    disc = _as_disc(system_or_disc, segments_per_phase)
    pre, post = steady_state_samples(
        disc, [seg.gramian for seg in disc.segments])
    logger.debug("periodic covariance solved: %d grid points, "
                 "period %.3g s", len(disc.grid), disc.period)
    return PeriodicCovariance(grid=disc.grid, pre=pre, post=post,
                              period=disc.period)


def steady_state_samples(disc, gramians):
    """Steady-state covariance ``(pre, post)`` samples on ``disc.grid``.

    ``gramians[k]`` is the noise Gramian driving segment ``k`` — the
    segment's own for :func:`periodic_covariance`, or an ``(m, n, n)``
    stack of ``m`` noise drives on the same dynamics (one per noise
    source for per-source attribution).  A stack shares one pass over
    the period: the period Gramian and the propagation carry the
    leading axis through every product, and only the discrete Lyapunov
    fixed point is solved drive by drive (Smith doubling stops at a
    different iteration for each).  The result is ``(m, len(grid), n,
    n)`` and entry ``i`` is bit-identical to driving ``disc`` with
    ``gramians[k][i]`` alone.

    Raises :class:`~repro.errors.StabilityError` (with ``multipliers``,
    ``spectral_radius`` and a ``floquet-unstable`` report) when the
    period map is not asymptotically stable.
    """
    phi_t, q_t = accumulate_period_gramian(disc.segments, gramians)
    if q_t.ndim == 2:
        k0 = _fixed_point(phi_t, q_t)
    else:
        k0 = np.stack([_fixed_point(phi_t, q) for q in q_t])
    return _propagate_over_period(disc.segments, gramians, k0)


def transient_covariance(system_or_disc, n_periods, k0=None,
                         segments_per_phase=64):
    """Propagate the covariance from ``k0`` (default zero) over n periods.

    Returns ``(times, covariances)`` where ``covariances[k]`` is the
    (post-jump) covariance at ``times[k]``; the trace spans ``n_periods``
    full periods including both endpoints. Used for convergence studies
    (how fast K approaches its periodic steady state) and by tests.
    """
    disc = _as_disc(system_or_disc, segments_per_phase)
    n = disc.n_states
    if n_periods < 1:
        raise ReproError(f"n_periods must be >= 1, got {n_periods}")
    k = (np.zeros((n, n)) if k0 is None
         else symmetrize(np.asarray(k0, dtype=float)).copy())
    gramians = [seg.gramian for seg in disc.segments]
    t_end = disc.grid[1:]
    times = [np.zeros(1)]
    trace = [k[None].copy()]
    for period_index in range(n_periods):
        _pre, post = _propagate_over_period(disc.segments, gramians, k)
        times.append(period_index * disc.period + t_end)
        trace.append(post[1:])
        k = post[-1]
    return np.concatenate(times), np.concatenate(trace)


def stationary_covariance(a_matrix, b_matrix):
    """Stationary covariance of an LTI circuit: solve ``AK+KA^T+BB^T=0``.

    The t→∞ limit every periodic engine must reproduce when the "switched"
    system has a single phase; used as a cross-check throughout the tests.
    """
    a = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b_matrix, dtype=float)
    return solve_continuous_lyapunov(a, b @ b.T).real


def _fixed_point(phi_t, q_t):
    """Period-start covariance: the discrete Lyapunov fixed point."""
    try:
        return solve_discrete_lyapunov(phi_t, q_t).real
    except StabilityError as exc:
        multipliers = eigenvalues(phi_t, context="periodic covariance")
        multipliers = multipliers[np.argsort(-np.abs(multipliers))]
        radius = float(np.max(np.abs(multipliers)))
        exc.multipliers = multipliers
        exc.spectral_radius = radius
        report = DiagnosticsReport(context="periodic covariance")
        report.error("floquet-unstable", str(exc),
                     spectral_radius=radius,
                     multipliers=[complex(m) for m in multipliers])
        logger.warning("periodic covariance failed: %s", exc)
        raise exc.attach_diagnostics(report)


def _propagate_over_period(segments, gramians, k0):
    """``(pre, post)`` samples of one period from ``K(0) = k0``.

    ``k0`` is ``(n, n)`` or a stack ``(m, n, n)`` matching stacked
    ``gramians``; samples are ``(len(segments) + 1, n, n)``, stacked
    as ``(m, len(segments) + 1, n, n)``.  The recursion is sequential,
    so its body stays lean: each step symmetrizes the real ``K`` as
    ``0.5 (K + Kᵀ)`` straight into its time-major sample row, the bits
    :func:`~repro.linalg.packing.symmetrize` gives.
    """
    shape = (len(segments) + 1,) + k0.shape
    pre = np.empty(shape)
    post = np.empty(shape)
    pre[0] = k0
    post[0] = k0
    k = k0
    for idx, (seg, gram) in enumerate(zip(segments, gramians), 1):
        phi = seg.phi
        k = phi @ k @ phi.T
        k += gram
        row = pre[idx]
        np.add(k, k.swapaxes(-1, -2), out=row)
        row *= 0.5
        k = row
        jump = seg.jump
        if jump is not None:
            k = jump @ k @ jump.T
            row = post[idx]
            np.add(k, k.swapaxes(-1, -2), out=row)
            row *= 0.5
            k = row
        else:
            post[idx] = k
    if k0.ndim == 2:
        return pre, post
    return (np.ascontiguousarray(np.moveaxis(pre, 0, -3)),
            np.ascontiguousarray(np.moveaxis(post, 0, -3)))


def _as_disc(system_or_disc, segments_per_phase):
    if hasattr(system_or_disc, "segments"):
        return system_or_disc
    return system_or_disc.discretize(segments_per_phase)
