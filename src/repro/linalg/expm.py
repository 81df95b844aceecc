"""Matrix exponential via Padé scaling-and-squaring.

This is the classic Higham (2005) [13/13] Padé approximant with scaling
chosen from the 1-norm.  It handles real and complex square matrices.  The
implementation is self-contained so that the per-phase propagators used by
every engine in this library do not depend on scipy internals; the test
suite cross-checks it against ``scipy.linalg.expm`` on random matrices.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..tolerances import EXPM_SERIES_RTOL
from ..typing import ArrayLike, ComplexArray, FloatArray

# Theta values from Higham 2005, "The scaling and squaring method for the
# matrix exponential revisited": largest 1-norm for which the [m/m] Padé
# approximant attains double-precision accuracy without scaling.
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}

_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}


def _pade(matrix: "FloatArray | ComplexArray", order: int
          ) -> "tuple[FloatArray | ComplexArray, FloatArray | ComplexArray]":
    """Return (U, V) of the [order/order] Padé approximant to exp(matrix).

    ``matrix`` is ``(n, n)`` or a stack ``(m, n, n)``; the identity
    broadcasts against a stack.
    """
    coeffs = _PADE_COEFFS[order]
    n = matrix.shape[-1]
    identity = np.eye(n, dtype=matrix.dtype)
    squared = matrix @ matrix
    # U collects odd powers (multiplied by `matrix` at the end), V even ones.
    u_poly = coeffs[1] * identity
    v_poly = coeffs[0] * identity
    power = identity
    for k in range(1, order // 2 + 1):
        power = power @ squared
        u_poly = u_poly + coeffs[2 * k + 1] * power
        v_poly = v_poly + coeffs[2 * k] * power
    return matrix @ u_poly, v_poly


def expm(matrix: ArrayLike) -> "FloatArray | ComplexArray":
    """Matrix exponential of a square array or a stack of them.

    Parameters
    ----------
    matrix : (n, n) or (m, n, n) array_like, real or complex

    Returns
    -------
    ndarray of ``matrix``'s shape with ``exp`` of each matrix, same dtype
    kind as the input.  A stack shares one Padé order and one scaling,
    chosen from its largest 1-norm, so each member agrees with its own
    2-D call to rounding (bit for bit when its norm picks the same
    order and scaling); a 2-D call is the textbook algorithm.
    """
    a = np.asarray(matrix)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ReproError(
            f"expm requires a square matrix or a stack of them, got "
            f"shape {a.shape}")
    if a.size == 0:
        return np.zeros(a.shape, dtype=a.dtype)
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(dtype, copy=True)
    if a.shape[-1] == 1:
        return np.exp(a)

    # The 1-norm (largest column sum) of each matrix, the largest of
    # a stack: ``np.linalg.norm(a, 1)`` for a 2-D input.
    norm = np.abs(a).sum(axis=-2).max()
    if not np.isfinite(norm):
        raise ReproError("expm input contains non-finite entries")

    squarings = 0
    order = 13
    for m in (3, 5, 7, 9):
        if norm <= _THETA[m]:
            order = m
            break
    else:
        if norm > _THETA[13]:
            squarings = max(0, int(np.ceil(np.log2(norm / _THETA[13]))))
            a = a / (2.0 ** squarings)

    u_part, v_part = _pade(a, order)
    # exp(A) ~= (V - U)^-1 (V + U)
    result = np.linalg.solve(v_part - u_part, v_part + u_part)
    for _ in range(squarings):
        result = result @ result
    return result


def expm_action(matrix: ArrayLike, vectors: ArrayLike, dt: float = 1.0,
                substeps: int | None = None
                ) -> "FloatArray | ComplexArray":
    """Compute ``exp(matrix * dt) @ vectors`` without forming large powers.

    For the moderate dimensions in this library (tens of states) a direct
    ``expm`` is usually fine; this helper exists for the lifted covariance
    systems where ``matrix`` is ``n^2 x n^2``. It uses a scaled Taylor
    iteration with a conservative term bound.
    """
    a = np.asarray(matrix)
    b = np.asarray(vectors, dtype=np.promote_types(a.dtype, np.float64))
    if a.shape[0] != a.shape[1] or a.shape[1] != b.shape[0]:
        raise ReproError(
            f"incompatible shapes for expm_action: {a.shape} and {b.shape}")
    norm = np.linalg.norm(a, 1) * abs(dt)
    if substeps is None:
        substeps = max(1, int(np.ceil(norm / 2.0)))
    h = dt / substeps
    out = b.astype(np.promote_types(a.dtype, b.dtype), copy=True)
    for _ in range(substeps):
        term = out.copy()
        acc = out.copy()
        for k in range(1, 60):
            term = (h / k) * (a @ term)
            acc = acc + term
            if (np.linalg.norm(term, np.inf)
                    <= EXPM_SERIES_RTOL * np.linalg.norm(acc, np.inf)):
                break
        out = acc
    return out
