"""Matrix φ-functions for exact affine propagation.

For a segment with constant (possibly complex-shifted) matrix ``A`` and a
forcing that is *linear in time* across the segment,

    dv/dt = A v + f0 + (f1 - f0) s / h,     s in [0, h],

the exact update is

    v(h) = Φ v(0) + I1 f0 + I2 (f1 - f0)/h
    Φ  = e^{Ah}
    I1 = ∫_0^h e^{Au} du          = h φ1(Ah)
    I2 = ∫_0^h e^{A(h-s)} s ds    = h² φ2(Ah)

with the φ-functions ``φ1(z) = (e^z − 1)/z`` and
``φ2(z) = (e^z − 1 − z)/z²``. They are evaluated by solving with ``A``
when it is safely invertible and by their Taylor series otherwise (the
hold phase of a switched circuit has ``A = 0`` exactly, where the series
is the right answer). Exactness for constant forcing is what lets the
MFT engine hit the analytic answer on LTI limits regardless of segment
density.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..typing import ArrayLike, ComplexArray, FloatArray

#: Below this value of ``‖Ah‖`` the Taylor series is used (12 terms give
#: full double precision for arguments this small).
SERIES_THRESHOLD = 0.03125
_SERIES_TERMS = 12


def affine_step_integrals(a_matrix: ArrayLike, h: float,
                          phi: "FloatArray | ComplexArray | None" = None
                          ) -> "tuple[FloatArray | ComplexArray, ...]":
    """Return ``(Φ, I1, I2)`` for one segment.

    ``phi`` may pass in a precomputed ``e^{Ah}`` (the engines already
    have it); it is computed otherwise.
    """
    a = np.asarray(a_matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ReproError(f"affine step needs a square matrix, got {a.shape}")
    if h <= 0.0:
        raise ReproError(f"segment length must be positive, got {h}")
    if phi is None:
        from .expm import expm
        phi = expm(a * h)
    else:
        phi = np.asarray(phi)

    norm = np.linalg.norm(a, 1) * h
    eye = np.eye(n, dtype=phi.dtype)
    if norm < SERIES_THRESHOLD:
        i1, i2 = series_integrals(a, h, eye)
        return phi, i1, i2

    # I1 = A^{-1} (Φ − I);  I2 = h·I1 − A^{-1}(hΦ − I1)
    try:
        i1 = np.linalg.solve(a, phi - eye)
        i2 = h * i1 - np.linalg.solve(a, h * phi - i1)
    except np.linalg.LinAlgError:
        # Singular A with a long segment (e.g. an ideal integrator in a
        # hold phase): fall back to scaled series via substepping.
        i1, i2 = _substep_series(a, h, eye)
    return phi, i1, i2


def series_integrals(a, h, eye):
    """Taylor series: I1 = Σ A^k h^{k+1}/(k+1)!,  I2 = Σ A^k h^{k+2}/(k+2)!.

    ``a`` may be a ``(m, n, n)`` stack; ``eye`` stays ``(n, n)`` and the
    returns broadcast to the stack.  Accurate to double precision for
    ``‖Ah‖`` below :data:`SERIES_THRESHOLD`.
    """
    i1 = np.zeros_like(eye)
    i2 = np.zeros_like(eye)
    term = eye * h
    for k in range(_SERIES_TERMS):
        i1 = i1 + term / (k + 1)
        i2 = i2 + term * (h / ((k + 1) * (k + 2)))
        term = (a @ term) * (h / (k + 1))
    return i1, i2


def _substep_series(a, h, eye):
    """Evaluate the integrals by composing m series substeps.

    Used only when ``A`` is singular *and* ``‖Ah‖`` is large, which the
    switched circuits in this library never produce, but a user-supplied
    system might.
    """
    from .expm import expm
    norm = np.linalg.norm(a, 1) * h
    m = int(np.ceil(norm / SERIES_THRESHOLD))
    hs = h / m
    phi_s = expm(a * hs)
    i1_s, i2_s = series_integrals(a, hs, eye)
    # Compose: over [0, kh_s], I1 accumulates Φ-propagated pieces.
    i1 = np.zeros_like(eye)
    i2 = np.zeros_like(eye)
    t_acc = 0.0
    for _ in range(m):
        # v contribution of constant forcing over the substep, propagated
        # to the end of the full segment, assembled incrementally:
        i1 = phi_s @ i1 + i1_s
        # I2 for linear-in-s forcing: shift of origin adds t_acc * I1_s.
        i2 = phi_s @ i2 + i2_s + t_acc * i1_s
        t_acc += hs
    return i1, i2
