"""Diagnostics-aware wrappers around the raw ``np.linalg`` kernels.

Library code outside :mod:`repro.linalg` is forbidden (the ``raw_linalg``
check in ``tests/test_static_contracts.py``) from calling
``np.linalg.solve/inv/lstsq/eig*`` directly.  The wrappers
here are the sanctioned route: they translate ``LinAlgError`` into the
package's :class:`~repro.errors.SingularMatrixError` with a caller
-supplied *context* string, optionally enforce a condition-number limit,
and always verify the result is finite — a solve that "succeeds" but
returns Inf/NaN (singular-to-working-precision triangular factors) is
the single most common silent failure mode of the noise engines.

Condition checking costs an extra SVD and is therefore **opt-in** via
``cond_limit``; per-step solves inside integrators leave it off, while
one-shot structural solves (MNA inversion, MFT collocation) turn it on.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularMatrixError
from ..tolerances import DIRECT_SOLVE_COND_LIMIT, LSTSQ_RCOND
from ..typing import ArrayLike, ComplexArray, FloatArray

__all__ = [
    "checked_solve",
    "checked_inv",
    "checked_lstsq",
    "batched_solve",
    "batched_condition_number",
    "eigenvalues",
    "eigenvalues_hermitian",
    "eigensystem",
    "eigensystem_hermitian",
    "spectral_radius",
    "condition_number",
]


def _require_finite(result: "FloatArray | ComplexArray",
                    context: str) -> None:
    if not np.all(np.isfinite(result)):
        raise SingularMatrixError(
            f"{context or 'linear solve'}: result contains non-finite "
            "entries (matrix singular to working precision)")


def condition_number(a: ArrayLike) -> float:
    """2-norm condition number of ``a``; ``inf`` instead of raising.

    Shape ``(n, n)`` in, scalar out.  The SVD occasionally fails to
    converge on matrices with Inf/NaN entries; those are by definition
    maximally ill-conditioned, so this returns ``inf`` rather than
    propagating the ``LinAlgError``.
    """
    matrix = np.asarray(a)
    if not np.all(np.isfinite(matrix)):
        return float("inf")
    try:
        return float(np.linalg.cond(matrix))
    except np.linalg.LinAlgError:  # pragma: no cover - no-converge is rare
        return float("inf")


def checked_solve(a: ArrayLike, b: ArrayLike, *, context: str = "",
                  cond_limit: float | None = None
                  ) -> "FloatArray | ComplexArray":
    """Solve ``a x = b`` with singularity translation and finite check.

    ``a`` has shape ``(n, n)``; ``b`` is ``(n,)`` or ``(n, k)`` and the
    result matches ``b``'s shape and the promoted dtype.  When
    ``cond_limit`` is given the solve is *rejected* (not merely warned
    about) if ``cond(a)`` exceeds it — use
    :data:`~repro.tolerances.DIRECT_SOLVE_COND_LIMIT` unless the call
    site has a documented reason for another threshold.
    """
    matrix = np.asarray(a)
    if cond_limit is not None:
        cond = condition_number(matrix)
        if not cond <= cond_limit:
            raise SingularMatrixError(
                f"{context or 'linear solve'}: condition number "
                f"{cond:.3g} exceeds limit {cond_limit:.3g}")
    try:
        result = np.linalg.solve(matrix, np.asarray(b))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"{context or 'linear solve'}: matrix is singular") from exc
    _require_finite(result, context)
    return result


def checked_inv(a: ArrayLike, *, context: str = "",
                cond_limit: float | None = DIRECT_SOLVE_COND_LIMIT
                ) -> "FloatArray | ComplexArray":
    """Explicit inverse of a square matrix, condition-checked by default.

    Unlike :func:`checked_solve`, inversion defaults ``cond_limit`` to
    :data:`~repro.tolerances.DIRECT_SOLVE_COND_LIMIT`: an explicit
    inverse is only ever formed for operators that are reused many times
    (MNA conductance, MFT evaluation matrices), where a near-singular
    inverse poisons every downstream product.  Pass ``cond_limit=None``
    to skip the extra SVD.
    """
    matrix = np.asarray(a)
    if cond_limit is not None:
        cond = condition_number(matrix)
        if not cond <= cond_limit:
            raise SingularMatrixError(
                f"{context or 'matrix inverse'}: condition number "
                f"{cond:.3g} exceeds limit {cond_limit:.3g}")
    try:
        result = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"{context or 'matrix inverse'}: matrix is singular") from exc
    _require_finite(result, context)
    return result


def checked_lstsq(a: ArrayLike, b: ArrayLike, *,
                  rcond: float | None = LSTSQ_RCOND, context: str = ""
                  ) -> "tuple[FloatArray | ComplexArray, int]":
    """Least-squares solve returning ``(solution, rank)``.

    Thin wrapper over ``np.linalg.lstsq`` that pins the ``rcond``
    default to the named :data:`~repro.tolerances.LSTSQ_RCOND` policy
    and drops the residuals/singular values that no call site in this
    package consumes.
    """
    try:
        solution, _residuals, rank, _sv = np.linalg.lstsq(
            np.asarray(a), np.asarray(b), rcond=rcond)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SingularMatrixError(
            f"{context or 'least-squares solve'}: SVD did not converge"
        ) from exc
    _require_finite(solution, context)
    return solution, int(rank)


def batched_solve(a: ArrayLike, b: ArrayLike, *, context: str = ""
                  ) -> "tuple[ComplexArray, np.ndarray]":
    """Solve a stack of systems ``a[k] x[k] = b[k]`` with partial failure.

    ``a`` has shape ``(m, n, n)``; ``b`` is ``(m, n)`` (vector right
    -hand sides) or ``(m, n, k)`` (matrix right-hand sides).  Returns
    ``(x, ok)`` where ``x`` matches ``b``'s shape in the promoted dtype
    and ``ok`` is a ``(m,)`` boolean mask.  Unlike :func:`checked_solve`
    this never raises on singularity: LAPACK rejects a whole stack when
    any member is singular, so on failure the solve is retried per
    member and the failing entries come back as NaN with ``ok`` False —
    exactly the partial-failure contract batched frequency sweeps need.
    Non-finite members from a "successful" solve are likewise masked.
    """
    stack = np.asarray(a)
    rhs = np.asarray(b)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise SingularMatrixError(
            f"{context or 'batched solve'}: expected an (m, n, n) stack, "
            f"got {stack.shape}")
    vector_rhs = rhs.ndim == 2
    if vector_rhs:
        if rhs.shape != stack.shape[:2]:
            raise SingularMatrixError(
                f"{context or 'batched solve'}: rhs shape {rhs.shape} "
                f"does not match stack {stack.shape}")
    elif rhs.ndim != 3 or rhs.shape[:2] != stack.shape[:2]:
        raise SingularMatrixError(
            f"{context or 'batched solve'}: rhs shape {rhs.shape} does "
            f"not match stack {stack.shape}")
    dtype = np.promote_types(stack.dtype, rhs.dtype)
    lapack_rhs = rhs[..., None] if vector_rhs else rhs
    try:
        solutions = np.linalg.solve(stack, lapack_rhs)
    except np.linalg.LinAlgError:
        solutions = np.full(lapack_rhs.shape, np.nan, dtype=dtype)
        for k in range(stack.shape[0]):
            try:
                solutions[k] = np.linalg.solve(stack[k], lapack_rhs[k])
            except np.linalg.LinAlgError:
                continue
    if vector_rhs:
        solutions = solutions[..., 0]
    ok = np.all(np.isfinite(solutions),
                axis=tuple(range(1, solutions.ndim)))
    return solutions.astype(dtype, copy=False), ok


def batched_condition_number(a: ArrayLike) -> FloatArray:
    """2-norm condition numbers of a stack, shape ``(m, n, n) -> (m,)``.

    Stacked counterpart of :func:`condition_number` with the same
    semantics: members whose SVD fails (or that contain Inf/NaN) report
    ``inf`` instead of raising, retrying per member when LAPACK rejects
    the whole stack.
    """
    stack = np.asarray(a)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise SingularMatrixError(
            f"batched condition number: expected an (m, n, n) stack, "
            f"got {stack.shape}")
    if np.all(np.isfinite(stack)):
        try:
            return np.asarray(np.linalg.cond(stack), dtype=float)
        except np.linalg.LinAlgError:  # pragma: no cover - rare
            pass
    return np.asarray([condition_number(stack[k])
                       for k in range(stack.shape[0])], dtype=float)


def eigenvalues(a: ArrayLike, *, context: str = "") -> ComplexArray:
    """Eigenvalues of a general square matrix, shape ``(n,)`` complex.

    Used for Floquet-multiplier and pole checks; failures (QR iteration
    not converging) become :class:`SingularMatrixError` so callers in
    the fallback chain can treat them as a diagnosable analysis failure
    rather than a crash.
    """
    try:
        return np.linalg.eigvals(np.asarray(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SingularMatrixError(
            f"{context or 'eigenvalue computation'}: QR iteration did "
            "not converge") from exc


def eigensystem(a: ArrayLike, *, context: str = ""
                ) -> "tuple[ComplexArray, ComplexArray]":
    """Eigendecomposition of a general square matrix: ``(values, vectors)``.

    ``values`` is ``(n,)`` complex; ``vectors`` is ``(n, n)`` complex
    with eigenvectors in columns, so ``a ≈ V diag(values) V^{-1}``
    whenever ``a`` is diagonalizable.  A defective matrix does *not*
    raise here — LAPACK returns numerically parallel columns — so
    callers that need an invertible basis must gate on
    :func:`condition_number` of ``vectors`` (the spectral sweep kernel
    does exactly that).  QR-iteration failures become
    :class:`~repro.errors.SingularMatrixError`.
    """
    try:
        values, vectors = np.linalg.eig(np.asarray(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SingularMatrixError(
            f"{context or 'eigendecomposition'}: QR iteration did not "
            "converge") from exc
    return np.asarray(values, dtype=complex), np.asarray(vectors,
                                                         dtype=complex)


def eigenvalues_hermitian(a: ArrayLike, *, context: str = "") -> FloatArray:
    """Eigenvalues of a Hermitian matrix, ascending, shape ``(n,)`` real."""
    try:
        return np.linalg.eigvalsh(np.asarray(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SingularMatrixError(
            f"{context or 'hermitian eigenvalues'}: eigensolver did not "
            "converge") from exc


def eigensystem_hermitian(a: ArrayLike, *, context: str = ""
                          ) -> "tuple[FloatArray, FloatArray | ComplexArray]":
    """Eigendecomposition of a Hermitian matrix: ``(values, vectors)``.

    ``values`` is ``(n,)`` real ascending; ``vectors`` is ``(n, n)``
    with eigenvectors in columns.  The Monte-Carlo engine uses this to
    factor per-segment Gramians, where a tiny negative rounding
    eigenvalue is expected and handled by the caller.
    """
    try:
        values, vectors = np.linalg.eigh(np.asarray(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise SingularMatrixError(
            f"{context or 'hermitian eigensystem'}: eigensolver did not "
            "converge") from exc
    return values, vectors


def spectral_radius(a: ArrayLike, *, context: str = "") -> float:
    """Largest eigenvalue modulus of ``a``; ``0.0`` for an empty matrix."""
    matrix = np.asarray(a)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(eigenvalues(matrix, context=context))))
