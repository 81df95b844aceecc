"""Frequency-batched spectral evaluation kernel for PSD sweeps.

:meth:`~repro.mft.context.SweepContext.solve_shifted` makes the
per-frequency cost of a sweep one ``affine_step_integrals`` call per
segment group plus one dense ``(I − M_ω)`` solve — but inside a per-ω
Python loop, paying O(n³) matrix work at every frequency.  This module
removes the loop: every frequency-dependent matrix of the shifted
dynamics ``A − jωI`` is formed for the whole frequency block at once, as
an ``(n_freq, n, n)`` stack.

- **Step integrals.** :func:`_step_integrals` is
  :func:`~repro.linalg.phi.affine_step_integrals` stacked over ω, branch
  for branch: rows with ``‖A_ω‖₁h`` below
  :data:`~repro.linalg.phi.SERIES_THRESHOLD` take its Taylor series
  (:func:`~repro.linalg.phi.series_integrals`), the others its two LU
  solves through one stacked ``batched_solve``, and a row whose shifted
  matrix is exactly singular takes the reference itself.  Each row's
  ``I1``, ``I2`` are the reference's own, and one segment group (one per
  clock phase on a uniform grid, see
  :func:`repro.mft.context.build_structure`) needs one stack of each.
- **Runs, not segments.** A clock phase's segments share one real
  ``Φ``, so each *run* of them carries its forcing to its end in one
  product against the phase's power stack ``Φ⁰ … Φ^{L−1}``, and the
  fixed point and the steady-state trace are passes over runs.
- **Fixed point.** The one-period map is ``M_ω = e^{-jωT} M₀`` (see
  :mod:`repro.mft.context`), so the fixed point is one batched
  ``repro.linalg.checked.batched_solve`` over the ``(n_freq, n, n)``
  stack ``I − e^{-jωT} M₀``.
- **Period integral.** It is linear in the trace, so the kernel keeps no
  trace: each group's integral is one evaluation on its run-boundary
  states (:func:`group_period_integral`).

The condition gate on ``cond(I − e^{-jωT}M₀)`` needs no per-ω SVD in the
usual case: one bound for every ω (:func:`fixed_point_condition_bound`,
cached as :attr:`~repro.mft.context.SweepContext.condition_bound`)
decides it when it lies within the limit, and only otherwise does the
exact stacked SVD run.

The batched results agree with the per-ω reference to ≤ 1e-9 relative
(enforced by ``benchmarks/test_perf_regression.py`` and
``tests/test_mft_spectral.py``); what differs is only the order of the
run contractions and of the fixed-point accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..linalg.checked import batched_condition_number, batched_solve
from ..linalg.phi import (
    SERIES_THRESHOLD,
    affine_step_integrals,
    series_integrals,
)
from ..tolerances import (
    CONDITION_BOUND_CONTRACTION,
    CONDITION_BOUND_ROUNDING,
    RESOLVENT_NORM_THRESHOLD,
)
from ..typing import ComplexArray, FloatArray
from .context import contract_run, propagate_runs, run_operator

__all__ = [
    "BatchedSolveResult",
    "certified_condition",
    "fixed_point_condition_bound",
    "group_period_integral",
    "solve_spectral_batch",
]

#: Squarings of the monodromy after which
#: :func:`fixed_point_condition_bound` gives up and returns ``inf``.  The
#: largest double below 1 halves only after ``2^52.5`` periods, so 64
#: squarings reach every multiplier that double precision tells apart
#: from the unit circle; more would only spend products on a marginal or
#: unstable ``M₀``.
CONDITION_BOUND_MAX_SQUARINGS = 64

@dataclass
class BatchedSolveResult:
    """Outcome of one frequency-batched periodic solve.

    ``integral[f]`` is the period integral of the steady-state trace at
    ``omegas[f]`` (complex, shape ``(n_freq, n)``); ``v0`` the fixed
    points.  ``conditions`` is what decided the condition gate on
    ``cond(I − M_ω)``: the context's
    :attr:`~repro.mft.context.SweepContext.condition_bound` at every
    frequency where that bound alone passed them all, the exact
    per-frequency values where the SVD ran, and NaN where no gate was
    asked (``condition_limit=None``).  ``ok``
    masks the frequencies whose direct batched solve succeeded (finite
    result, condition gate passed) — the engine reruns the others
    through the reference fallback chain so failure semantics match the
    per-ω path exactly.

    For a *stacked* solve (forcing of shape ``(R, S, 2, n)``, one row
    per forcing vector — attribution passes the total plus one row per
    noise source) ``integral`` and ``v0`` gain a leading ``R`` axis and
    ``ok`` masks a frequency only when **every** row solved (the rows
    share one LU factorization per frequency, so they fail together).
    """

    omegas: FloatArray
    integral: ComplexArray
    v0: ComplexArray
    conditions: FloatArray
    ok: np.ndarray
    solver: str = "spectral-batch"


def fixed_point_condition_bound(monodromy) -> float:
    """One bound ``B ≥ cond₂(I − c M₀)`` for every ``|c| = 1``.

    With ``c = e^{−jωT}`` this bounds the fixed-point condition of the
    kernel at every frequency at once.  The inverse factors as
    ``(I − cM₀)⁻¹ = Π_{i<k} (I + (cM₀)^{2^i}) · (I − (cM₀)^{2^k})⁻¹``, so
    with ``a_i = ‖M₀^{2^i}‖_F`` (Frobenius norms bound 2-norms and are
    submultiplicative) and any ``k`` with ``a_k < 1``:

        cond₂(I − cM₀) ≤ B = (1 + a_0) · Π_{i<k} (1 + a_i) / (1 − a_k)

    Squaring stops once ``a_k`` reaches
    :data:`~repro.tolerances.CONDITION_BOUND_CONTRACTION`.  ``inf`` when
    no ``a_k`` falls below 1 within :data:`CONDITION_BOUND_MAX_SQUARINGS`
    squarings
    (a near-marginal or unstable ``M₀``) or a norm is not finite.
    """
    power = np.asarray(monodromy, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(power))
        bound = 1.0 + norm
        for _ in range(CONDITION_BOUND_MAX_SQUARINGS):
            if not (np.isfinite(norm)
                    and norm > CONDITION_BOUND_CONTRACTION):
                break
            bound *= 1.0 + norm
            power = power @ power
            norm = float(np.linalg.norm(power))
    if not norm < 1.0:
        return float("inf")
    return bound / (1.0 - norm)


def certified_condition(bound, n) -> float:
    """The largest ``cond`` an SVD may report when ``cond₂ ≤ bound``.

    An ``n × n`` SVD returns each singular value within
    ``δ·σ_max`` (``δ = n·``:data:`~repro.tolerances.CONDITION_BOUND_ROUNDING`),
    so a computed condition is at most ``bound·(1 + δ)/(1 − δ·bound)``;
    ``inf`` once ``δ·bound`` reaches 1.  The kernel skips the per-ω SVD
    gate only when this is within the limit, so that the gate decides as
    the SVD would.
    """
    delta = n * CONDITION_BOUND_ROUNDING
    if not delta * bound < 1.0:
        return float("inf")
    return bound * (1.0 + delta) / (1.0 - delta * bound)


def _group_norm_h(a_matrix, omegas, duration):
    """Vectorized ``‖A − jωI‖₁ · h`` for all ω, shape ``(n_freq,)``.

    The 1-norm is the max column absolute sum; only the diagonal entry
    of each column depends on ω, so the off-diagonal sums are computed
    once and the shifted diagonal contributes ``|A_jj − jω|``.
    """
    a = np.asarray(a_matrix)
    col_sums = np.sum(np.abs(a), axis=0)
    diag = np.diagonal(a)
    off_diag = col_sums - np.abs(diag)
    shifted_diag = np.abs(diag[None, :] - 1j * omegas[:, None])
    return np.max(off_diag[None, :] + shifted_diag, axis=1) * duration


def _step_integrals(group, omegas, norm_h
                    ) -> "tuple[ComplexArray, ComplexArray]":
    """``affine_step_integrals`` of one segment group, stacked over ω.

    Returns ``(I1, I2)`` as ``(n_freq, n, n)`` complex stacks, branch
    for branch the reference's: rows whose ``norm_h`` (``‖A_ω‖₁h``, see
    :func:`_group_norm_h`) falls below
    :data:`~repro.linalg.phi.SERIES_THRESHOLD` take its Taylor series,
    the others ``I1 = A_ω⁻¹(Φ_ω − I)`` and
    ``I2 = h I1 − A_ω⁻¹(h Φ_ω − I1)`` through stacked solves.  A row
    whose shifted matrix is exactly singular (the reference's
    substepping branch) takes :func:`affine_step_integrals` itself.
    When every row takes one branch the stacks are that branch's own.
    """
    h = group.duration
    n = group.a_matrix.shape[0]
    eye = np.eye(n, dtype=complex)
    a_stack = (group.a_matrix.astype(complex)[None, :, :]
               - 1j * omegas[:, None, None] * eye[None, :, :])
    series = norm_h < SERIES_THRESHOLD
    if series.all():
        return series_integrals(a_stack, h, eye)
    mixed = series.any()
    lu = ~series if mixed else slice(None)
    a_lu = a_stack[lu]
    phi_w = (np.exp(-1j * omegas[lu] * h)[:, None, None]
             * group.phi.astype(complex))
    i1, ok1 = batched_solve(a_lu, phi_w - eye,
                            context="batched affine step I1")
    correction, ok2 = batched_solve(a_lu, h * phi_w - i1,
                                    context="batched affine step I2")
    i2 = h * i1 - correction
    for fi in np.nonzero(~(ok1 & ok2))[0]:
        _phi, i1[fi], i2[fi] = affine_step_integrals(
            a_lu[fi], h, phi=phi_w[fi])
    if not mixed:
        return i1, i2
    out1 = np.empty(a_stack.shape, dtype=complex)
    out2 = np.empty(a_stack.shape, dtype=complex)
    out1[lu], out2[lu] = i1, i2
    out1[series], out2[series] = series_integrals(a_stack[series], h, eye)
    return out1, out2


def _run_forcing(block, forcing, run, h, i1, i2) -> None:
    """Fill one run's ``block[r] = I1 f0[r]ᵀ + I2 slope[r]ᵀ``.

    ``block`` is the run's state-major ``(R, F, n, L)`` forcing,
    ``i1``/``i2`` the group's ``(F, n, n)`` step integrals and
    ``forcing`` the stacked ``(R, S, 2, n)`` endpoint pairs, of which
    the run's segments give ``f0`` and ``slope = (f1 − f0)/h``.  Each
    product is one ``(F·n, n) × (n, L)`` GEMM per forcing row, landing
    in place in the block's layout.
    """
    n_f, n = i1.shape[:2]
    length = block.shape[-1]
    i1_flat = i1.reshape(n_f * n, n)
    i2_flat = i2.reshape(n_f * n, n)
    f0 = forcing[:, run.start:run.stop, 0]
    slope = (forcing[:, run.start:run.stop, 1] - f0) / h
    for r in range(block.shape[0]):
        part = block[r].reshape(n_f * n, length)
        np.matmul(i1_flat, f0[r].T, out=part)
        part += i2_flat @ slope[r].T


def group_period_integral(a_matrix, duration, omegas, diff_sum, f0_sum,
                          f1_sum, norm_h, state_sums) -> ComplexArray:
    """Period integral of the trace over one segment group, from sums.

    ``diff_sum`` (complex, ``(R, n_freq, n)``) is the group's
    ``Σ (end − start)`` over its segments — segment end (before its own
    jump) minus segment start (after the previous jump);
    ``f0_sum``/``f1_sum`` (``(R, n)``) the summed forcing endpoints and
    ``norm_h`` (``(n_freq,)``) the per-ω ``‖A_ω‖₁ h``.
    ``state_sums(rows)`` returns ``(start_sum, end_sum)``, the states
    summed at segment starts and at segment ends, at the frequency
    indices ``rows``; it is called only for the frequencies that take the
    trapezoid.  Both per-segment formulas of the reference are linear in
    the segment's end states and every member shares ``A`` and its
    propagator ``Φ = e^{Ah}`` (see
    :func:`repro.mft.context.build_structure`), so the group needs one
    evaluation on the sums instead of one per segment:

    - above :data:`~repro.tolerances.RESOLVENT_NORM_THRESHOLD`, the
      resolvent ``A_ω⁻¹ (Q − P − h/2 (F0 + F1))`` through the same LU the
      reference uses (``A_ω`` is ill-conditioned exactly when this branch
      triggers, so any other division would round differently);
    - otherwise, or where that solve fails, the derivative-corrected
      trapezoid ``h/2 (P + Q) + h²/12 (A_ω (P − Q) + F0 − F1)``.

    One factorization per frequency serves every forcing row as a
    stacked right-hand-side column.  Returns ``(R, n_freq, n)`` complex.
    """
    h = duration
    n = a_matrix.shape[0]
    out = np.empty(np.shape(diff_sum), dtype=complex)
    use_resolvent = norm_h > RESOLVENT_NORM_THRESHOLD
    trapezoid = ~use_resolvent
    if use_resolvent.any():
        rows = (slice(None) if use_resolvent.all()
                else np.nonzero(use_resolvent)[0])
        a_shifted = (a_matrix.astype(complex)[None, :, :]
                     - 1j * omegas[rows, None, None]
                     * np.eye(n, dtype=complex)[None, :, :])
        rhs = (diff_sum[:, rows]
               - (0.5 * h * (f0_sum + f1_sum))[:, None, :])
        cols, solve_ok = batched_solve(a_shifted, rhs.transpose(1, 2, 0),
                                       context="segment integral resolvent")
        out[:, rows] = cols.transpose(2, 0, 1)
        trapezoid[rows] = ~solve_ok
    if trapezoid.any():
        rows = np.nonzero(trapezoid)[0]
        start, end = state_sums(rows)
        diff = start - end
        a_diff = diff @ a_matrix.T - 1j * omegas[None, rows, None] * diff
        out[:, rows] = (0.5 * h * (start + end)
                        + h * h / 12.0 * (a_diff
                                          + (f0_sum - f1_sum)[:, None, :]))
    return out


def _run_state_sums(struct, members, rows, omegas, blocks, weights, starts,
                    ends):
    """``(start_sum, end_sum)`` of one group's runs at the frequencies ``rows``.

    A run's segment-end states are those of a zero-start run whose first
    forcing also carries the first homogeneous step ``e^{-jωh} Φ v_in``,
    so their sum is the same run contraction applied to that forcing
    cumulated along the run: ``Σ_k v_k = Σ_p w_p Φ^{L−1−p} Γ_p`` with
    ``Γ_p`` the cumulated forcing up to segment ``start + p`` and ``w_p``
    its run-end phase.  ``blocks``/``weights`` hold the phase-weighted
    run forcing and its weights; the segment-start sum follows as
    ``Σ_k v_k − v_end + v_in``.
    """
    start_sum = 0.0
    end_sum = 0.0
    for i in members:
        run = struct.runs[i]
        phase = weights[i][None, rows, None, :]
        cumulated = np.cumsum(blocks[i][:, rows] * phase.conj(), axis=-1)
        v_in = starts[i][:, rows]
        first = (np.exp(-1j * omegas[rows] * struct.durations[run.start])
                 [:, None] * (v_in @ struct.groups[run.group].phi.T))
        cumulated += first[..., None]
        cumulated *= phase
        total = contract_run(run_operator(struct, run), cumulated)
        end_sum = end_sum + total
        start_sum = start_sum + (total - ends[i][:, rows] + v_in)
    return start_sum, end_sum


def solve_spectral_batch(context, omegas, segment_forcing,
                         condition_limit=None,
                         recorder=None) -> BatchedSolveResult:
    """Periodic steady state of ``dv/dt = (A−jω)v + f`` for all ω at once.

    Batched counterpart of
    :meth:`~repro.mft.context.SweepContext.solve_shifted`; see the
    module docstring for the identities.  ``omegas`` is a 1-D float
    array [rad/s] of finite frequencies; ``segment_forcing`` the usual
    ``(S, 2, n)`` endpoint pairs, or a stacked ``(R, S, 2, n)`` block of
    ``R`` independent forcing rows solved against **shared** per-ω
    matrix work (step integrals, one LU of ``I − e^{-jωT}M₀``
    with ``R`` right-hand sides, shared resolvent factorizations) —
    this is what keeps per-source attribution ~context-bound instead of
    ``n_sources×``.  With ``condition_limit`` given,
    frequencies whose ``cond(I − M_ω)`` exceeds it are *masked out*
    (``ok`` False) rather than raising — the engine reruns them through
    the per-frequency fallback chain, which reproduces the reference
    rejection and its fallback attempts exactly.  The exact conditions
    are computed only when the context's bound
    (:func:`certified_condition` of
    :attr:`~repro.mft.context.SweepContext.condition_bound`) exceeds the
    limit; otherwise every frequency passes as the SVD gate would pass
    it.  Without a limit no condition is computed.

    With an enabled ``recorder`` (:class:`repro.obs.Recorder`) the
    kernel's stages — step-integral stacking, run contractions and
    batched fixed-point solve,
    the pass over runs, period integral — become child spans of the
    caller's ``spectral.batch`` span.
    """
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    disc = context.disc
    struct = context.structure
    n = disc.n_states
    n_seg = disc.n_segments
    forcing = np.asarray(segment_forcing)
    stacked = forcing.ndim == 4
    if not stacked:
        forcing = forcing[None]
    if forcing.shape[1:] != (n_seg, 2, n):
        raise ReproError(
            f"segment forcing must have shape ({n_seg}, 2, {n}) or "
            f"(R, {n_seg}, 2, {n}), got "
            f"{forcing.shape if stacked else forcing.shape[1:]}")
    n_rows = forcing.shape[0]
    omegas = np.asarray(omegas, dtype=float).reshape(-1)
    if not np.all(np.isfinite(omegas)):
        raise ReproError("batched solve frequencies must be finite "
                         "(filter non-finite inputs before the kernel)")
    n_freq = omegas.size
    if n_freq == 0:
        empty_shape = (n_rows, 0, n) if stacked else (0, n)
        return BatchedSolveResult(
            omegas=omegas, integral=np.empty(empty_shape, dtype=complex),
            v0=np.empty(empty_shape, dtype=complex),
            conditions=np.empty(0, dtype=float),
            ok=np.empty(0, dtype=bool))

    # Per-segment forcing integrals g_k(ω) = I1(ω) f0 + I2(ω) slope,
    # batched over frequencies, with the per-ω reference's own I1 and I2
    # (:func:`_step_integrals`).
    runs = struct.runs
    with recorder.span("spectral.step-integrals",
                       n_groups=len(struct.groups)):
        # One state-major (R, F, n, L) block per run, so each run's
        # forcing at one (row, ω) is one contiguous (n, L) slab.
        blocks = [np.empty((n_rows, n_freq, n, run.stop - run.start),
                           dtype=complex) for run in runs]
        norm_h_groups = [_group_norm_h(group.a_matrix, omegas,
                                       group.duration)
                         for group in struct.groups]
        for group, norm_h in zip(struct.groups, norm_h_groups):
            i1, i2 = _step_integrals(group, omegas, norm_h)
            for i in group.runs:
                _run_forcing(blocks[i], forcing, runs[i], group.duration,
                             i1, i2)

    # One-period affine map, all frequencies at once: M_ω = e^{-jωT} M₀,
    # and g_ω composed run by run from each run's end state
    # y = Σ_k e^{-jω(t_end[k₁] − t_end[k])} Φ^{k₁−k} g_k.
    with recorder.span("spectral.solve", n=int(n_freq)):
        period = disc.period
        phase_total = np.exp(-1j * omegas * period)
        monodromy = context.monodromy.astype(complex)
        eye = np.eye(n, dtype=complex)
        m_stack = eye[None, :, :] - phase_total[:, None, None] * monodromy
        # The condition gate: one bound per context decides it for every
        # frequency unless it is too loose for the limit, and only then
        # does the exact per-frequency SVD run.
        conditions = np.full(n_freq, np.nan)
        if condition_limit is not None:
            bound = context.condition_bound
            if certified_condition(bound, n) <= condition_limit:
                conditions[:] = bound
            else:
                conditions = batched_condition_number(m_stack)
        # Each run's forcing is phase-weighted in place and contracted
        # against the run's power stack: one real product per (row, ω).
        weights = []
        particular = []
        for run, block in zip(runs, blocks):
            weight = np.exp(-1j * omegas[:, None] * run.lags[None, :])
            block *= weight[None, :, None, :]
            weights.append(weight)
            particular.append(contract_run(run_operator(struct, run), block))
        spans = [np.exp(-1j * omegas * run.span)[:, None] for run in runs]
        g_acc = propagate_runs(struct, spans, particular, np.zeros(
            (n_rows, n_freq, n), dtype=complex))[2]
        # One LU per frequency, all forcing rows as stacked RHS columns.
        v0_cols, ok = batched_solve(m_stack, np.moveaxis(g_acc, 0, -1),
                                    context="batched fixed-point solve")
        v0 = np.moveaxis(v0_cols, -1, 0)
        if condition_limit is not None:
            ok = ok & ~(conditions > condition_limit)

    # The steady state at every run boundary: one pass over runs,
    # vectorized across the whole frequency block.  Every product is per
    # forcing row or elementwise, so row 0 of a stacked solve stays
    # bit-identical to the unstacked solve.
    with recorder.span("spectral.trace", n_runs=len(runs)):
        starts, ends, _ = propagate_runs(struct, spans, particular, v0)

    # Per group, the resolvent needs only Σ (end − start) over its
    # segments, which telescopes within a run; the trapezoid's state
    # sums come from the run contractions (:func:`_run_state_sums`).
    with recorder.span("spectral.period-integral"):
        forcing_sums = np.zeros((len(struct.groups), n_rows, 2, n),
                                dtype=complex)
        np.add.at(forcing_sums, struct.group_of,
                  forcing.transpose(1, 0, 2, 3))
        integral = np.zeros((n_rows, n_freq, n), dtype=complex)
        for g, group in enumerate(struct.groups):
            first, *rest = group.runs
            diff_sum = ends[first] - starts[first]
            for i in rest:
                diff_sum = diff_sum + (ends[i] - starts[i])

            def state_sums(rows, group=group):
                return _run_state_sums(struct, group.runs, rows, omegas,
                                       blocks, weights, starts, ends)

            integral += group_period_integral(
                group.a_matrix, group.duration, omegas, diff_sum,
                forcing_sums[g, :, 0], forcing_sums[g, :, 1],
                norm_h_groups[g], state_sums)

    if not stacked:
        integral = integral[0]
        v0 = v0[0]
    return BatchedSolveResult(
        omegas=omegas, integral=integral, v0=v0, conditions=conditions,
        ok=ok)
