"""Frequency-batched spectral evaluation kernel for PSD sweeps.

:meth:`~repro.mft.context.SweepContext.solve_shifted` already made the
per-frequency cost of a sweep one ``affine_step_integrals`` call per
segment group plus one dense ``(I − M_ω)`` solve — but still inside a
per-ω Python loop, paying O(n³) matrix work at every frequency.  This
module removes the loop.  The key observation is that the only genuinely
frequency-dependent matrices of the shifted dynamics ``A − jωI`` share
the *frequency-independent* eigenbasis of ``A``:

    A = V Λ V⁻¹   ⇒   A − jωI = V (Λ − jωI) V⁻¹

so with ``μ_i(ω) = λ_i − jω`` and ``z = μ h`` every per-frequency matrix
function collapses to elementwise scalar functions of ``z``:

    Φ_ω = V diag(e^{z}) V⁻¹
    I1(ω) = V diag(h φ1(z)) V⁻¹          φ1(z) = (e^z − 1)/z
    I2(ω) = V diag(h² φ2(z)) V⁻¹         φ2(z) = (e^z − 1 − z)/z²
    (A − jωI)⁻¹ r = V diag(1/μ) V⁻¹ r

Eigendecompose each segment group **once** (frequency-independent, via
:func:`repro.linalg.checked.eigensystem`; one group per clock phase on a
uniform grid, see :func:`repro.mft.context.build_structure`), then
evaluate the scalar φ-functions for *all* ω at once as stacked
``(n_freq, n)`` arrays.  The kernel takes that scalar route only where
the per-ω reference takes its Taylor series (``‖A_ω‖h`` below
:data:`~repro.linalg.phi.SERIES_THRESHOLD`); everywhere else it runs
the reference's own LU solves on the whole ``(n_freq, n, n)`` stack.
So the bases are built on the first group that has series rows, and a
sweep with none never builds them.  The one-period fixed point uses the
scalar identity ``M_ω = e^{-jωT} M₀`` (see :mod:`repro.mft.context`), so
the solve becomes one batched
``repro.linalg.checked.batched_solve`` over the ``(n_freq, n, n)`` stack
``I − e^{-jωT} M₀``.  Per-ω cost drops from O(n³) Python-looped work to
O(n³)-once plus O(n²)-per-ω vectorized matmul kernels.  No step of
the kernel loops over segments in Python: a clock phase's segments share
one real ``Φ``, so each *run* of them (see
:func:`repro.mft.context.build_structure`) carries its forcing to its
end in one product against the phase's power stack
``Φ⁰ … Φ^{L−1}``, and the fixed point and the steady-state trace are
passes over runs.  The period integral is linear in the trace, so the
kernel keeps no trace: each group's integral is one evaluation on its
run-boundary states (:func:`group_period_integral`).

The condition gate on ``cond(I − e^{-jωT}M₀)`` needs no per-ω SVD in the
usual case: one bound for every ω (:func:`fixed_point_condition_bound`,
cached as :attr:`~repro.mft.context.SweepContext.condition_bound`)
decides it when it lies within the limit, and only otherwise does the
exact stacked SVD run.

Numerics: round-tripping through the eigenbasis amplifies rounding by
~``cond(V)``, so each group's basis is gated on
:data:`~repro.tolerances.SPECTRAL_EIGENBASIS_COND_LIMIT`.  A defective
(Jordan-block) or ill-conditioned group falls back **per group** — not
per sweep — to the reference per-frequency ``affine_step_integrals``
at its series rows, preserving correctness at the cost of those rows'
batching; the engine surfaces this as a severity-tagged diagnostics
finding.  The batched results agree with the per-ω reference to ≤ 1e-9
relative (enforced by ``benchmarks/test_perf_regression.py`` and
``tests/test_mft_spectral.py``); the exact-reorder paths stay at 1e-12.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError, SingularMatrixError
from ..linalg.checked import (
    batched_condition_number,
    batched_solve,
    checked_inv,
    condition_number,
    eigensystem,
)
from ..linalg.phi import SERIES_THRESHOLD, affine_step_integrals
from ..tolerances import (
    CONDITION_BOUND_CONTRACTION,
    CONDITION_BOUND_ROUNDING,
    RESOLVENT_NORM_THRESHOLD,
    SPECTRAL_EIGENBASIS_COND_LIMIT,
)
from ..typing import ComplexArray, FloatArray
from .context import contract_run, propagate_runs, run_operator

logger = logging.getLogger(__name__)

__all__ = [
    "GroupBasis",
    "BatchedSolveResult",
    "build_group_bases",
    "certified_condition",
    "fixed_point_condition_bound",
    "group_period_integral",
    "phi_scalar_integrals",
    "solve_spectral_batch",
]

#: Mirrors ``_SERIES_TERMS`` of :mod:`repro.linalg.phi`: 12 terms give
#: full double precision below :data:`~repro.linalg.phi.SERIES_THRESHOLD`.
_SERIES_TERMS = 12

#: Squarings of the monodromy after which
#: :func:`fixed_point_condition_bound` gives up and returns ``inf``.  The
#: largest double below 1 halves only after ``2^52.5`` periods, so 64
#: squarings reach every multiplier that double precision tells apart
#: from the unit circle; more would only spend products on a marginal or
#: unstable ``M₀``.
CONDITION_BOUND_MAX_SQUARINGS = 64

@dataclass
class GroupBasis:
    """Frequency-independent eigenbasis of one segment group.

    ``diagonalizable`` is False when the eigendecomposition failed or
    ``cond(V)`` exceeds the gate — that group must use the per-frequency
    reference integrals.  ``values``/``vectors``/``inverse`` are ``None``
    exactly when ``diagonalizable`` is False.
    """

    diagonalizable: bool
    condition: float
    values: ComplexArray | None = None
    vectors: ComplexArray | None = None
    inverse: ComplexArray | None = None
    reason: str = ""


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
    per-ω path exactly.  ``fallback_groups`` lists the segment-group
    indices whose series rows used the per-frequency path (defective
    eigenbasis); a defective group with no series rows in the block is
    not listed, as its basis was never read.

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
    fallback_groups: list = field(default_factory=list)
    solver: str = "spectral-batch"


def build_group_bases(groups) -> list:
    """Eigendecompose every segment group once; returns ``GroupBasis`` list.

    Gated on :data:`~repro.tolerances.SPECTRAL_EIGENBASIS_COND_LIMIT`:
    a group whose eigenvector matrix is singular, non-finite, or
    ill-conditioned beyond the gate is marked non-diagonalizable and
    later routed through the per-frequency reference path.
    """
    bases = []
    for index, group in enumerate(groups):
        try:
            values, vectors = eigensystem(
                group.a_matrix, context="spectral group eigenbasis")
        except SingularMatrixError as exc:
            bases.append(GroupBasis(
                diagonalizable=False, condition=float("inf"),
                reason=f"eigendecomposition failed: {exc}"))
            continue
        cond = condition_number(vectors)
        if not (np.all(np.isfinite(values))
                and cond <= SPECTRAL_EIGENBASIS_COND_LIMIT):
            bases.append(GroupBasis(
                diagonalizable=False, condition=float(cond),
                reason=(f"eigenbasis rejected: cond(V) = {cond:.3g} "
                        f"exceeds {SPECTRAL_EIGENBASIS_COND_LIMIT:.3g} "
                        "(defective or near-defective segment matrix)")))
            logger.info("spectral kernel: group %d falls back to the "
                        "per-frequency path (cond(V) = %.3g)", index, cond)
            continue
        inverse = checked_inv(vectors, context="spectral eigenbasis inverse",
                              cond_limit=None)
        bases.append(GroupBasis(
            diagonalizable=True, condition=float(cond), values=values,
            vectors=vectors, inverse=inverse))
    return bases


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


def phi_scalar_integrals(z: ComplexArray, h: float
                         ) -> "tuple[ComplexArray, ComplexArray]":
    """Elementwise diagonal factors ``(h φ1(z), h² φ2(z))`` of ``I1, I2``.

    ``z`` is any-shape complex (``z = (λ − jω) h``); both returns match
    its shape and are complex.  Small arguments use the same 12-term
    Taylor series as the matrix path in :mod:`repro.linalg.phi`
    (below :data:`~repro.linalg.phi.SERIES_THRESHOLD`, where the closed
    forms lose digits to cancellation); large arguments use the closed
    forms directly.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < SERIES_THRESHOLD
    safe = np.where(small, 1.0, z)
    exp_z = np.exp(safe)
    phi1 = (exp_z - 1.0) / safe
    phi2 = (exp_z - 1.0 - safe) / (safe * safe)
    # Taylor series, identical term recurrence to phi._series_integrals:
    # φ1 = Σ z^k/(k+1)!,  φ2 = Σ z^k/(k+2)!.
    term = np.ones_like(z)
    s1 = np.zeros_like(z)
    s2 = np.zeros_like(z)
    for k in range(_SERIES_TERMS):
        s1 = s1 + term / (k + 1)
        s2 = s2 + term / ((k + 1) * (k + 2))
        term = term * z / (k + 1)
    i1 = h * np.where(small, s1, phi1)
    i2 = (h * h) * np.where(small, s2, phi2)
    return i1, i2


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


def _lu_step_integrals(group, omegas, eye):
    """Batched mirror of the LU branch of ``affine_step_integrals``.

    Returns ``(I1, I2)`` as ``(n_freq, n, n)`` stacks via
    ``I1 = A_ω⁻¹(Φ_ω − I)`` and ``I2 = h I1 − A_ω⁻¹(h Φ_ω − I1)`` —
    the identical solves the per-ω reference performs, batched over the
    stack.  A frequency whose shifted matrix is exactly singular (the
    reference's substepping branch) falls back to
    :func:`affine_step_integrals` for that member.
    """
    h = group.duration
    a_stack = (group.a_matrix.astype(complex)[None, :, :]
               - 1j * omegas[:, None, None] * eye[None, :, :])
    phi_w = (np.exp(-1j * omegas * h)[:, None, None]
             * group.phi.astype(complex))
    i1, ok1 = batched_solve(a_stack, phi_w - eye,
                            context="batched affine step I1")
    correction, ok2 = batched_solve(a_stack, h * phi_w - i1,
                                    context="batched affine step I2")
    i2 = h * i1 - correction
    for fi in np.nonzero(~(ok1 & ok2))[0]:
        _phi, i1[fi], i2[fi] = affine_step_integrals(
            a_stack[fi], h, phi=phi_w[fi])
    return i1, i2


def _rows(mask):
    """The frequencies of ``mask`` as a slice when contiguous, else indices.

    ``None`` when the mask is empty.
    """
    index = np.nonzero(mask)[0]
    if not index.size:
        return None
    if index[-1] - index[0] + 1 == index.size:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _lu_run_forcing(block, rows, f0, slope, i1, i2):
    """Fill one run's ``block[r, rows] = I1 f0[r]ᵀ + I2 slope[r]ᵀ``.

    ``block`` is the run's state-major ``(R, F, n, L)`` forcing,
    ``i1``/``i2`` the ``(F', n, n)`` LU-branch stacks at the frequencies
    ``rows``, ``f0``/``slope`` the ``(R, L, n)`` forcing of the run's
    segments.  Each product is one ``(F'·n, n) × (n, L)`` GEMM per forcing
    row: the layout of the block, so where ``rows`` is a slice (the
    usual case) the products land in place.
    """
    n_f, n = i1.shape[:2]
    length = block.shape[-1]
    i1_flat = i1.reshape(n_f * n, n)
    i2_flat = i2.reshape(n_f * n, n)
    for r in range(block.shape[0]):
        if isinstance(rows, slice):
            part = block[r, rows].reshape(n_f * n, length)
            np.matmul(i1_flat, f0[r].T, out=part)
            part += i2_flat @ slope[r].T
        else:
            part = i1_flat @ f0[r].T
            part += i2_flat @ slope[r].T
            block[r, rows] = part.reshape(n_f, n, length)


def _run_forcing_endpoints(forcing, run, h):
    """A run's ``(R, L, n)`` forcing at segment starts and its slope."""
    f0 = forcing[:, run.start:run.stop, 0]
    return f0, (forcing[:, run.start:run.stop, 1] - f0) / h


def _reference_group_integrals(group, omegas, rows, forcing, members):
    """Per-frequency fallback: fill one defective group's series rows.

    ``rows`` (a slice or index array of ``omegas``) are the frequencies
    whose ``‖A_ω‖h`` falls below the series threshold, the only ones
    that would read the group's eigenbasis; the others take the batched
    LU mirror, which already repeats the reference's solves.
    ``forcing`` is the stacked ``(R, S, 2, n)`` form and ``members`` the
    group's ``(run, block)`` pairs, each block the run's ``(R, F, n, L)``
    output; the per-ω integrals are computed once and applied to every
    forcing row.
    """
    h = group.duration
    n = group.a_matrix.shape[0]
    eye = np.eye(n)
    endpoints = [_run_forcing_endpoints(forcing, run, h)
                 for run, _block in members]
    for fi in np.arange(omegas.size)[rows]:
        omega = omegas[fi]
        a_shifted = group.a_matrix.astype(complex) - 1j * omega * eye
        phi_shifted = np.exp(-1j * omega * h) * group.phi
        _phi, i1, i2 = affine_step_integrals(a_shifted, h, phi=phi_shifted)
        for (_run, block), (f0, slope) in zip(members, endpoints):
            block[:, fi] = (f0 @ i1.T + slope @ i2.T).transpose(0, 2, 1)


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
      triggers, so eigenbasis division would round differently);
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
    matrix work (eigenbasis φ-integrals, one LU of ``I − e^{-jωT}M₀``
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
    kernel's stages — eigenbasis build (when series rows need it),
    φ-integral stacking, run contractions and batched fixed-point solve,
    the pass over runs, period integral — become child spans of the
    caller's ``spectral.batch`` span.
    """
    if recorder is None:
        from ..obs import NULL_RECORDER
        recorder = NULL_RECORDER
    disc = context.disc
    struct = context.structure
    n = disc.n_states
    n_seg = len(disc.segments)
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
    # batched over frequencies.  Regimes mirror the per-ω reference
    # (``affine_step_integrals``) so the two paths stay within the 1e-9
    # equivalence budget: below the series threshold the reference's
    # Taylor series and the eigenbasis scalar φ-series agree to rounding
    # (and the scalar path needs no per-ω matrix work at all); at or
    # above it the reference solves with the ill-conditioned ``A − jωI``
    # whose ~cond·eps error is *algorithm-specific*, so the batch runs
    # the very same LU through a stacked solve instead of the (more
    # accurate, but differently-rounded) eigenbasis division.  Only the
    # series rows read a group's eigenbasis, so the bases are built on
    # the first group that has such rows, and a defective group sends
    # just those rows through the per-frequency reference.
    runs = struct.runs
    bases = None
    fallback_groups = []
    with recorder.span("spectral.step-integrals",
                       n_groups=len(struct.groups)):
        # One state-major (R, F, n, L) block per run, so each run's
        # forcing at one (row, ω) is one contiguous (n, L) slab.
        blocks = [np.empty((n_rows, n_freq, n, run.stop - run.start),
                           dtype=complex) for run in runs]
        eye_c = np.eye(n, dtype=complex)
        norm_h_groups = [_group_norm_h(group.a_matrix, omegas,
                                       group.duration)
                         for group in struct.groups]
        for g, group in enumerate(struct.groups):
            members = [(runs[i], blocks[i]) for i in group.runs]
            h = group.duration
            small = norm_h_groups[g] < SERIES_THRESHOLD
            series = _rows(small)
            lu = _rows(~small)
            if lu is not None:
                i1, i2 = _lu_step_integrals(group, omegas[lu], eye_c)
            scalar = None
            if series is not None:
                if bases is None:
                    with recorder.span("spectral.eigenbasis"):
                        bases = context.spectral_bases
                if bases[g].diagonalizable:
                    scalar = bases[g]
                    z = (scalar.values[None, :]
                         - 1j * omegas[series, None]) * h
                    i1d, i2d = phi_scalar_integrals(z, h)
                else:
                    fallback_groups.append(g)
                    with recorder.span("spectral.group-fallback", group=g):
                        _reference_group_integrals(group, omegas, series,
                                                   forcing, members)
            for run, block in members:
                f0, slope = _run_forcing_endpoints(forcing, run, h)
                if scalar is not None:
                    c0 = scalar.inverse @ f0.transpose(0, 2, 1)
                    cs = scalar.inverse @ slope.transpose(0, 2, 1)
                    coeffs = (i1d[None, :, :, None] * c0[:, None]
                              + i2d[None, :, :, None] * cs[:, None])
                    block[:, series] = scalar.vectors @ coeffs
                if lu is not None:
                    _lu_run_forcing(block, lu, f0, slope, i1, i2)
    if fallback_groups:
        recorder.count("spectral.fallback_groups", len(fallback_groups))

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
        ok=ok, fallback_groups=fallback_groups)
