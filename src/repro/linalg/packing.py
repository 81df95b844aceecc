"""Symmetric-matrix packing helpers.

The covariance ODE evolves a symmetric matrix, so only ``n(n+1)/2``
components are independent — exactly the count the paper quotes ("for an N
node circuit, N(N+1)/2 equations have to be solved"). These helpers pack
and unpack the lower triangle so the brute-force integrator works on the
minimal vector, and the tests assert the round-trip.
"""

from __future__ import annotations

import numpy as np

from ..typing import ArrayLike, ComplexArray, FloatArray, IntArray
from ..errors import ReproError


def duplication_index_pairs(n: int) -> "tuple[IntArray, IntArray]":
    """Return the (row, col) index arrays of the packed lower triangle.

    Ordering is column-major lower triangle: (0,0), (1,0), ..., (n-1,0),
    (1,1), (2,1), ... which matches the standard ``vech`` operator.
    """
    rows = []
    cols = []
    for j in range(n):
        for i in range(j, n):
            rows.append(i)
            cols.append(j)
    return np.asarray(rows), np.asarray(cols)


def vech(matrix: ArrayLike) -> "FloatArray | ComplexArray":
    """Pack the lower triangle (including diagonal) of a symmetric matrix."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ReproError(f"vech requires a square matrix, got {m.shape}")
    rows, cols = duplication_index_pairs(m.shape[0])
    return m[rows, cols]


def unvech(packed: ArrayLike,
           n: "int | None" = None) -> "FloatArray | ComplexArray":
    """Inverse of :func:`vech`: rebuild the full symmetric matrix."""
    v = np.asarray(packed)
    if v.ndim != 1:
        raise ReproError(f"unvech requires a vector, got shape {v.shape}")
    if n is None:
        # Solve n(n+1)/2 = len(v) for n.
        n = int((np.sqrt(8 * v.size + 1) - 1) / 2)
    if n * (n + 1) // 2 != v.size:
        raise ReproError(
            f"packed length {v.size} is not a triangular number for n={n}")
    out = np.zeros((n, n), dtype=v.dtype)
    rows, cols = duplication_index_pairs(n)
    out[rows, cols] = v
    out[cols, rows] = v
    return out


def symmetrize(matrix: ArrayLike) -> "FloatArray | ComplexArray":
    """Return ``(M + M.T.conj()) / 2`` — cheap Hermitian clean-up.

    A stack ``(..., n, n)`` is cleaned matrix by matrix.
    """
    m = np.asarray(matrix)
    return 0.5 * (m + np.swapaxes(m.conj(), -1, -2))
