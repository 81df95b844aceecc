"""Bartels–Stewart solver for the Sylvester equation ``A X + X B = C``.

Implemented on top of the complex Schur decomposition: transform ``A`` and
``B`` to upper-triangular form, solve the triangular system column by
column, and transform back. Dimensions in this library are small (tens of
states), so the O(n^3) dense approach is entirely adequate. The test suite
cross-checks against ``scipy.linalg.solve_sylvester``.
"""

from __future__ import annotations

import numpy as np

from ..errors import SingularMatrixError
from ..tolerances import SYLVESTER_DIAG_FLOOR
from ..typing import ArrayLike, ComplexArray, FloatArray


def solve_sylvester(a_matrix: ArrayLike, b_matrix: ArrayLike,
                    c_matrix: ArrayLike) -> "FloatArray | ComplexArray":
    """Solve ``A X + X B = C`` for ``X``.

    Raises :class:`~repro.errors.SingularMatrixError` when ``A`` and ``-B``
    share an eigenvalue (the equation is then singular) — for Lyapunov use
    this corresponds to a marginally stable circuit.
    """
    a = np.asarray(a_matrix)
    b = np.asarray(b_matrix)
    c = np.asarray(c_matrix)
    if a.shape[0] != c.shape[0] or b.shape[0] != c.shape[1]:
        raise SingularMatrixError(
            f"sylvester shape mismatch: A {a.shape}, B {b.shape}, C {c.shape}")

    # Imported here, not at module level: no MFT path solves a Sylvester
    # equation, and scipy.linalg is about half of a cold ``import repro``.
    import scipy.linalg

    ta, ua = scipy.linalg.schur(a, output="complex")
    tb, ub = scipy.linalg.schur(b, output="complex")
    f = ua.conj().T @ c @ ub

    n, m = f.shape
    y = np.zeros((n, m), dtype=complex)
    eye = np.eye(n)
    for j in range(m):
        rhs = f[:, j] - y[:, :j] @ tb[:j, j]
        shifted = ta + tb[j, j] * eye
        diag = np.diagonal(shifted)
        if np.min(np.abs(diag)) < SYLVESTER_DIAG_FLOOR:
            raise SingularMatrixError(
                "Sylvester equation is singular: A and -B share an eigenvalue")
        y[:, j] = scipy.linalg.solve_triangular(shifted, rhs)

    x = ua @ y @ ub.conj().T
    if np.isrealobj(a) and np.isrealobj(b) and np.isrealobj(c):
        return x.real
    return x
