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

Neither walks the grid segment by segment.  The segments of one clock
phase share one ``(Phi, Q)``, so the discretization holds them as *runs*
(:class:`~repro.lptv.discretization.PhaseRun`) over which the samples
are ``K_r = Phi^r K_0 Phi^{r T} + S_r``, ``S_r = sum_{i<r} Phi^i Q
Phi^{i T}``.  The period map takes each run's ``(Phi^L, S_L)`` by binary
powering; the samples come from a blocked scan with ``B = isqrt(L)``:
sequential steps of ``(Phi^B, S_B)`` to the block starts, then one
batched product from the tables ``Phi^r``, ``S_r`` (``r < B``) for every
other sample.  The samples agree with the per-segment recursion to
rounding (``~1e-14`` of ``max |K|``), not bit for bit; a run of length 1
(every run of a sampled system) is one recursion step.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from ..diagnostics.report import DiagnosticsReport
from ..errors import ReproError, StabilityError
from ..linalg.lyapunov import (
    solve_continuous_lyapunov,
    solve_discrete_lyapunov,
)
from ..linalg.checked import eigenvalues
from ..linalg.packing import symmetrize
from ..lptv.discretization import (
    PeriodDiscretization,
    SegmentRun,
    accumulate_period_gramian,
)
from ..typing import ArrayLike, FloatArray

if TYPE_CHECKING:
    from ..lptv.system import PiecewiseLTISystem, SampledLPTVSystem

    SystemOrDisc = Union[PiecewiseLTISystem, SampledLPTVSystem,
                         PeriodDiscretization]

logger = logging.getLogger(__name__)


@dataclass
class PeriodicCovariance:
    """Steady-state covariance sampled on one period.

    ``post[k]``/``pre[k]`` are the covariance at ``grid[k]`` after/before
    any jump at that instant (identical where no jump exists; one and
    the same array when the period has no jump, so neither is written
    to). By periodicity ``post[-1] == post[0]``.
    """

    grid: FloatArray
    pre: FloatArray
    post: FloatArray
    period: float

    @property
    def n_states(self) -> int:
        return int(self.post.shape[1])

    def variance(self, state_index: int) -> FloatArray:
        """Variance trace of one state over the period (post-jump)."""
        return self.post[:, state_index, state_index].real.copy()

    def output_variance(self, l_row: ArrayLike) -> FloatArray:
        """Variance trace of the output ``y = l^T x``."""
        row = np.asarray(l_row, dtype=float)
        return np.einsum("i,kij,j->k", row, self.post, row).real

    def average_output_variance(self, l_row: ArrayLike) -> float:
        """Period-averaged output variance (trapezoid over the grid)."""
        trace = self.output_variance(np.asarray(l_row, dtype=float))
        return float(np.trapezoid(trace, self.grid) / self.period)

    def forcing_samples(self, l_row: ArrayLike
                        ) -> tuple[FloatArray, FloatArray]:
        """``K(t) l`` at the grid points, the cross-spectral forcing.

        Returns ``(post_samples, pre_samples)`` each of shape
        ``(len(grid), n)``; these feed straight into
        :func:`repro.lptv.periodic_solve.forcing_from_samples`.
        """
        row = np.asarray(l_row, dtype=float)
        return self.post @ row, self.pre @ row


def periodic_covariance(system_or_disc: SystemOrDisc,
                        segments_per_phase: int = 64) -> PeriodicCovariance:
    """Periodic steady-state covariance of a stable switched system.

    Raises :class:`~repro.errors.StabilityError` for an unstable system;
    the error carries the Floquet ``multipliers`` and a diagnostics
    report so the failing mode is identifiable without re-running.
    """
    disc = _as_disc(system_or_disc, segments_per_phase)
    pre, post = steady_state_samples(
        disc, [run.gramian for run in disc.runs])
    logger.debug("periodic covariance solved: %d grid points, "
                 "period %.3g s", len(disc.grid), disc.period)
    return PeriodicCovariance(grid=disc.grid, pre=pre, post=post,
                              period=disc.period)


def steady_state_samples(disc: PeriodDiscretization,
                         drives: Sequence[FloatArray]
                         ) -> tuple[FloatArray, FloatArray]:
    """Steady-state covariance ``(pre, post)`` samples on ``disc.grid``.

    ``drives[i]`` is the noise Gramian driving every segment of run
    ``disc.runs[i]`` — the run's own for :func:`periodic_covariance`,
    or an ``(m, n, n)`` stack of ``m`` noise drives on the same dynamics
    (one per noise source for per-source attribution).  A stack shares one pass over
    the period's runs: the period Gramian, the discrete Lyapunov fixed
    point (one shared sequence of monodromy powers, each drive stopping
    at its own Smith doubling iteration) and the blocked scan carry the
    leading axis through every product.  The result is ``(m, len(grid),
    n, n)`` and entry ``i`` is bit-identical to driving ``disc`` with
    ``drives[r][i]`` alone.  Without a jump in the period ``post`` is
    the ``pre`` array itself.

    Raises :class:`~repro.errors.StabilityError` (with ``multipliers``,
    ``spectral_radius`` and a ``floquet-unstable`` report) when the
    period map is not asymptotically stable.
    """
    runs = disc.driven_runs(drives)
    phi_t, q_t = accumulate_period_gramian(runs)
    return _propagate_over_period(runs, _fixed_point(phi_t, q_t))


def transient_covariance(system_or_disc: SystemOrDisc, n_periods: int,
                         k0: ArrayLike | None = None,
                         segments_per_phase: int = 64
                         ) -> tuple[FloatArray, FloatArray]:
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
         else symmetrize(np.asarray(k0, dtype=float)).real.copy())
    runs = disc.driven_runs([run.gramian for run in disc.runs])
    t_end = disc.t_end
    times = [np.zeros(1)]
    trace = [k[None].copy()]
    for period_index in range(n_periods):
        _pre, post = _propagate_over_period(runs, k)
        times.append(period_index * disc.period + t_end)
        trace.append(post[1:])
        k = post[-1]
    return np.concatenate(times), np.concatenate(trace)


def stationary_covariance(a_matrix: ArrayLike,
                          b_matrix: ArrayLike) -> FloatArray:
    """Stationary covariance of an LTI circuit: solve ``AK+KA^T+BB^T=0``.

    The t→∞ limit every periodic engine must reproduce when the "switched"
    system has a single phase; used as a cross-check throughout the tests.
    """
    a = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b_matrix, dtype=float)
    return solve_continuous_lyapunov(a, b @ b.T).real


def _fixed_point(phi_t: FloatArray, q_t: FloatArray) -> FloatArray:
    """Period-start covariance: the discrete Lyapunov fixed point.

    ``q_t`` is one period Gramian ``(n, n)`` or a stack ``(m, n, n)``
    of them, solved together.
    """
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


def _propagate_over_period(runs: Sequence[SegmentRun],
                           k0: FloatArray) -> tuple[FloatArray, FloatArray]:
    """``(pre, post)`` samples of one period from ``K(0) = k0``.

    ``k0`` is ``(n, n)`` or a stack ``(m, n, n)`` matching stacked
    drives; samples are ``(S + 1, n, n)`` for ``S`` segments, stacked as
    ``(m, S + 1, n, n)``.  Sample ``r`` of a run of length ``L`` is
    ``Φ^r K Φ^{rᵀ} + S_r`` from the run's start ``K``.  With block
    length ``B = isqrt(L)``, steps of ``(Φ^B, S_B)`` reach the block
    starts one after another and :func:`_fill_run` batches the rest; a
    run with ``B = 1`` (shorter than 4, e.g. a sampled system's runs of
    length 1) is the plain recursion.  The samples are symmetrized once,
    as ``0.5 (K + Kᵀ)`` over the whole period (the bits
    :func:`~repro.linalg.packing.symmetrize` gives), not step by step:
    ``Φ E Φᵀ`` keeps a rounding-level antisymmetric ``E`` antisymmetric,
    so it never reaches the symmetric part.  ``post`` is ``pre`` but at
    the run-end jumps, ``K → J K Jᵀ`` (symmetrized before it drives the
    next run); with no jump it is the ``pre`` array itself, and its
    buffer was only scratch.
    """
    pre = np.empty(k0.shape[:-2] + (runs[-1][1] + 1,) + k0.shape[-2:])
    post = np.empty_like(pre)
    # Time-major views of the result: a stacked drive is filled in its
    # ``(m, S + 1, n, n)`` layout, with no transposing copy at the end.
    rows = np.moveaxis(pre, -3, 0)
    scratch = np.moveaxis(post, -3, 0)
    rows[0] = k0
    jumped: list[tuple[int, FloatArray]] = []
    k = k0
    for start, stop, phi, gram, jump in runs:
        length = stop - start
        block = math.isqrt(length)
        if block > 1:
            tables = _run_tables(phi, gram, block)
            step, step_t, step_gram = (table[block] for table in tables)
        else:
            step, step_t, step_gram = phi, phi.T, gram
        first = k
        for idx in range(start + block, stop - length % block + 1, block):
            k = np.add(step @ k @ step_t, step_gram, out=rows[idx])
        if block > 1:
            _fill_run(first, start, stop, tables, rows, scratch)
            k = rows[stop]
        if jump is not None:
            k = jump @ k @ jump.T
            k = 0.5 * (k + k.swapaxes(-1, -2))
            jumped.append((stop, k))
    np.add(pre, pre.swapaxes(-1, -2), out=post)
    np.multiply(post, 0.5, out=pre)
    if not jumped:
        return pre, pre
    post[...] = pre
    for idx, k in jumped:
        post[..., idx, :, :] = k
    return pre, post


def _run_tables(phi: FloatArray, gram: FloatArray, count: int
                ) -> tuple[FloatArray, FloatArray, FloatArray]:
    """``Φ^r``, ``(Φ^r)ᵀ`` and ``S_r = Σ_{i<r} Φⁱ Q Φⁱᵀ``, ``r = 0 … count``.

    The transposes are C-ordered copies: a product against a
    transposed view is several times slower for small ``n``.
    """
    powers = np.empty((count + 1,) + phi.shape)
    sums = np.empty((count + 1,) + gram.shape)
    powers[0] = np.eye(phi.shape[0])
    sums[0] = 0.0
    powers[1] = phi
    sums[1] = gram
    phi_t = np.ascontiguousarray(phi.T)
    for r in range(1, count):
        np.matmul(phi, powers[r], out=powers[r + 1])
        np.matmul(phi @ sums[r], phi_t, out=sums[r + 1])
        sums[r + 1] += gram
    return powers, np.ascontiguousarray(powers.swapaxes(-1, -2)), sums


def _fill_run(first: FloatArray, start: int, stop: int,
              tables: tuple[FloatArray, FloatArray, FloatArray],
              rows: FloatArray, scratch: FloatArray) -> None:
    """The sample rows of one run between its block starts.

    The block starts ``start + aB`` hold ``K_{aB}`` (``first`` at
    ``a = 0``, the rows after it), ``B = len(powers) − 1``; every other
    sample is ``Φ^r K_{aB} Φ^{rᵀ} + S_r`` — one batched product over the
    whole blocks, one over the tail past the last block start.
    ``scratch`` rows (rewritten after the period) hold ``Φ^r K``, so no
    temporary the size of the rows is allocated.
    """
    powers, powers_t, sums = tables
    block = len(powers) - 1
    n_blocks = (stop - start) // block
    full = slice(start, start + n_blocks * block)
    shape = (n_blocks, block) + first.shape
    bases = np.concatenate((first[None], rows[start + block:full.stop:block]))
    picks = slice(1, block)
    _fill_rows(powers[picks], powers_t[picks], sums[picks], bases[:, None],
               rows[full].reshape(shape)[:, 1:],
               scratch[full].reshape(shape)[:, 1:])
    tail = stop - full.stop
    if tail:
        picks = slice(1, tail + 1)
        span = slice(full.stop + 1, stop + 1)
        _fill_rows(powers[picks], powers_t[picks], sums[picks],
                   rows[full.stop], rows[span], scratch[span])


def _fill_rows(powers: FloatArray, powers_t: FloatArray, sums: FloatArray,
               bases: FloatArray, rows: FloatArray,
               scratch: FloatArray) -> None:
    """``rows = Φ^r K Φ^{rᵀ} + S_r``, broadcast over sample rows.

    ``powers[r]`` and ``sums[r]`` go with the rows' sample axis and
    ``bases`` broadcasts against them; ``scratch`` holds ``Φ^r K``.
    """
    axes = powers.shape[:1] + (1,) * (sums.ndim - 3) + powers.shape[1:]
    np.matmul(powers.reshape(axes), bases, out=scratch)
    np.matmul(scratch, powers_t.reshape(axes), out=rows)
    rows += sums


def _as_disc(system_or_disc: SystemOrDisc,
             segments_per_phase: int) -> PeriodDiscretization:
    if isinstance(system_or_disc, PeriodDiscretization):
        return system_or_disc
    return system_or_disc.discretize(segments_per_phase)
