"""Continuous and discrete Lyapunov solvers plus the MFT fixed point.

Three solves appear in the steady-state noise engines:

* ``A K + K A^H + Q = 0`` — stationary covariance of an LTI circuit
  (used by the LTI baseline and as the t→∞ limit check).
* ``K = Phi K Phi^H + Q`` — the *periodic* steady-state covariance of a
  switched circuit, where ``Phi`` is the one-period monodromy matrix and
  ``Q`` the accumulated Van Loan Gramian. This is the first of the two
  linear solves that replace the brute-force transient in the DAC 2003
  method.
* ``q = M q + g`` — the per-frequency cross-spectral fixed point
  ``Q*(0) = (I − Φ_ω)^{-1} g_ω`` (complex, non-Hermitian). This is the
  second solve.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError, SingularMatrixError, StabilityError
from ..typing import ArrayLike, ComplexArray, FloatArray
from ..tolerances import (
    FIXED_POINT_RIDGE,
    LSTSQ_RCOND,
    SMITH_DOUBLING_RTOL,
    TINY_FLOOR,
)
from .packing import symmetrize
from .sylvester import solve_sylvester


def solve_continuous_lyapunov(a_matrix: ArrayLike, q_matrix: ArrayLike
                              ) -> "FloatArray | ComplexArray":
    """Solve ``A K + K A^H + Q = 0`` for the stationary covariance ``K``.

    ``Q`` must be Hermitian; the result is symmetrised to remove rounding
    skew. Raises :class:`~repro.errors.SingularMatrixError` when ``A`` has
    eigenvalues summing to zero in pairs (marginally stable circuit).
    """
    a = np.asarray(a_matrix)
    q = np.asarray(q_matrix)
    x = solve_sylvester(a, a.conj().T, -q)
    return symmetrize(x)


def solve_discrete_lyapunov(phi_matrix: ArrayLike, q_matrix: ArrayLike,
                            max_doublings: int = 64,
                            tol: float = SMITH_DOUBLING_RTOL
                            ) -> "FloatArray | ComplexArray":
    """Solve ``K = Phi K Phi^H + Q`` by Smith doubling.

    Smith's squaring iteration converges quadratically whenever the
    spectral radius of ``Phi`` is strictly below one, which is exactly the
    Floquet stability condition required for a periodic steady state to
    exist; an unstable ``Phi`` raises
    :class:`~repro.errors.StabilityError` with the offending radius.

    ``q_matrix`` is ``(n, n)`` or a stack ``(m, n, n)`` of drives on the
    same ``Phi``, solved together: one radius check and one sequence of
    powers ``Phi, Phi², Phi⁴, …`` serve every drive, and each drive stops
    at its own iteration, so entry ``i`` is bit-identical to solving
    ``q_matrix[i]`` alone.
    """
    phi = np.asarray(phi_matrix)
    q = np.asarray(q_matrix)
    if (q.ndim not in (2, 3) or q.shape[-2:] != phi.shape
            or q.size == 0 < phi.size):
        raise SingularMatrixError(
            f"discrete Lyapunov shape mismatch: {phi.shape} vs {q.shape}")
    radius = max(abs(np.linalg.eigvals(phi))) if phi.size else 0.0
    if radius >= 1.0:
        raise StabilityError(
            f"monodromy spectral radius {radius:.6g} >= 1: the periodic "
            "system is not asymptotically stable, no steady-state "
            "covariance exists")
    x = q.astype(complex if np.iscomplexobj(phi) or np.iscomplexobj(q)
                 else float, copy=True)
    solved = x.reshape((-1,) + phi.shape)
    q_norms = _frobenius_norms(solved)
    live = np.flatnonzero(q_norms)
    if live.size < len(solved):
        solved[q_norms == 0.0] = 0.0
    active = solved[live]
    p = phi.copy()
    for _ in range(max_doublings):
        if not live.size:
            break
        update = p @ active @ p.conj().T
        active = active + update
        # Purely relative criterion: the solution magnitude is
        # Q/(1-radius²)-sized and can be arbitrarily small, so an
        # absolute floor would terminate prematurely for near-unity
        # radii with small Q (slow circuits under a fast clock).
        done = _frobenius_norms(update) <= tol * _frobenius_norms(active)
        if True in done.tolist():
            solved[live[done]] = symmetrize(active[done])
            live = live[~done]
            active = active[~done]
        p = p @ p
    if live.size:
        raise ConvergenceError(
            "Smith doubling did not converge; monodromy spectral radius "
            f"{radius:.6g} is too close to one", iterations=max_doublings)
    return x


def _frobenius_norms(stack: "FloatArray | ComplexArray") -> FloatArray:
    """Frobenius norm of each matrix of an ``(m, n, n)`` stack.

    The same dot products ``np.linalg.norm(matrix, "fro")`` takes, so
    each norm is bit-identical to the 2-D call's.
    """
    flat = stack.reshape(len(stack), -1)
    if flat.dtype.kind == "c":
        squares = (np.vecdot(flat.real, flat.real)
                   + np.vecdot(flat.imag, flat.imag))
    else:
        squares = np.vecdot(flat, flat)
    return np.sqrt(squares)


def solve_linear_fixed_point(m_matrix: ArrayLike, g_vector: ArrayLike
                             ) -> "FloatArray | ComplexArray":
    """Solve ``q = M q + g`` i.e. ``(I − M) q = g``.

    Used for the per-frequency cross-spectral steady state. Raises
    :class:`~repro.errors.SingularMatrixError` when ``I − M`` is singular
    (a Floquet multiplier of the frequency-shifted system sits exactly at
    one, which for a stable circuit cannot happen at any real frequency).
    ``g`` is ``(n,)`` or ``(n, k)``, one right-hand side per column.
    """
    m = np.asarray(m_matrix)
    g = np.asarray(g_vector)
    n = m.shape[0]
    system = np.eye(n, dtype=m.dtype) - m
    try:
        return np.linalg.solve(system, g)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            "fixed-point system (I - M) is singular") from exc


def fixed_point_condition(m_matrix: ArrayLike) -> float:
    """2-norm condition number of the fixed-point system ``I − M``.

    The loss of accuracy of ``(I − M)^{-1} g`` is ~``log10(cond)``
    digits; the fallback chain uses this to reject a direct solve that
    "succeeded" numerically but is dominated by rounding error. Returns
    ``inf`` for an exactly singular system instead of raising.
    """
    m = np.asarray(m_matrix)
    n = m.shape[0]
    system = np.eye(n, dtype=m.dtype) - m
    try:
        return float(np.linalg.cond(system))
    except np.linalg.LinAlgError:  # pragma: no cover - SVD rarely fails
        return float("inf")


def solve_regularized_fixed_point(m_matrix: ArrayLike, g_vector: ArrayLike,
                                  ridge: float = FIXED_POINT_RIDGE
                                  ) -> "FloatArray | ComplexArray":
    """Tikhonov-regularized least-squares solve of ``(I − M) q = g``.

    Minimises ``‖(I − M) q − g‖² + λ²‖q‖²`` with ``λ = ridge · ‖I − M‖``
    via the augmented least-squares system — well-defined even when
    ``I − M`` is exactly singular, where it returns the minimum-norm
    solution of the consistent part. This is the safety net between the
    direct solve and the brute-force transient in the fallback chain.
    ``g`` is ``(n,)`` or ``(n, k)``, one right-hand side per column.
    """
    m = np.asarray(m_matrix)
    g = np.asarray(g_vector)
    n = m.shape[0]
    dtype = np.promote_types(m.dtype, g.dtype)
    system = np.eye(n, dtype=dtype) - m
    lam = float(ridge) * max(np.linalg.norm(system, 2), TINY_FLOOR)
    augmented = np.vstack([system, lam * np.eye(n, dtype=dtype)])
    rhs = np.concatenate([g.astype(dtype),
                          np.zeros((n,) + g.shape[1:], dtype=dtype)])
    solution, _residuals, rank, _sv = np.linalg.lstsq(augmented, rhs,
                                                      rcond=LSTSQ_RCOND)
    if rank < n:  # pragma: no cover - augmented system has full rank
        raise SingularMatrixError(
            f"regularized fixed-point system is rank deficient "
            f"({rank} < {n})")
    return solution
