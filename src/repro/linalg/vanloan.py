"""Van Loan block-exponential discretization of LTI noise dynamics.

For an LTI segment ``dx = A x dt + B dW`` of length ``h`` the state map and
the accumulated process-noise covariance are

    x(t+h) = Phi x(t) + w,   w ~ N(0, Q_h)
    Phi = expm(A h)
    Q_h = integral_0^h expm(A s) B B^T expm(A^T s) ds.

Van Loan (1978) computes both at once from a single block exponential::

    expm([[A, B B^T], [0, -A^T]] h) = [[M11, M12], [0, M22]]
    Phi = M11,  Q_h = M12 @ M11^T  ... (with the sign convention below)

This module uses the equivalent, numerically friendly form

    G = expm([[-A, B B^T], [0, A^T]] h) = [[G11, G12], [0, G22]]
    Phi = G22^T,  Q_h = Phi @ G12

which is the statement most common in the Kalman-filtering literature.
The result ``Q_h`` is symmetrised before being returned because the two
halves of the block exponential each carry independent rounding error.

These Gramians are what makes the mixed-frequency-time engine *exact* for
piecewise-LTI switched-capacitor circuits: no integration error accrues
inside a clock phase, so the only discretization knob left is the grid on
which the cross-spectral forcing is sampled.
"""

from __future__ import annotations

import numpy as np

from ..typing import ArrayLike, FloatArray
from ..errors import ReproError
from .expm import expm
from .packing import symmetrize

#: Largest ‖A‖·h for which the block exponential is evaluated directly;
#: e^{‖A‖h} stays far from overflow below this and the doubling
#: composition above it is exact.
_BLOCK_NORM_LIMIT = 16.0
#: Binary orders by which a drive's 1-norm may exceed ‖A‖₁'s before it is
#: scaled down.  Two leave the shipped circuits' drives (at most 3.7 ‖A‖₁,
#: the SC low-pass) and so their ``Φ`` bits as they are: a lower Padé
#: scaling re-rounds ``Φ``, and ill-conditioned period products such as a
#: monodromy with a mid-phase jump amplify that to ~1e-9.  The value is
#: fitted to today's circuits, not derived: it stands until the 1e-12
#: bound of ``test_mft_spectral.py::TestRunPropagation::
#: test_pass_over_runs_is_the_monodromy``, which holds only through shared
#: rounding (its FOUND line in CHANGES.md), is re-derived from the
#: product's conditioning (ROADMAP item 1).
_DRIVE_EXPONENT_SLACK = 2


def vanloan_gramian(a_matrix: ArrayLike, noise_bbt: ArrayLike,
                    dt: float) -> "tuple[FloatArray, FloatArray]":
    """Return ``(Phi, Q_h)`` for one LTI segment.

    Parameters
    ----------
    a_matrix : (n, n) array_like
        State matrix ``A`` of the segment.
    noise_bbt : (n, n) or (m, n, n) array_like
        The diffusion product ``B @ B.T`` (symmetric positive
        semidefinite), or a stack of ``m`` of them driving the same
        ``A`` (one per noise source).
    dt : float
        Segment duration; must be ``>= 0``.

    Returns
    -------
    phi : (n, n) ndarray
        ``expm(A dt)``.
    gramian : ndarray shaped like ``noise_bbt``
        The exact accumulated noise covariance over the segment, one per
        drive of a stack.  A stack takes one block exponential and
        shares the doubling composition (``Φ`` depends on ``A`` only);
        each member agrees with its own 2-D call to rounding.
    """
    a = np.asarray(a_matrix, dtype=float)
    q = np.asarray(noise_bbt, dtype=float)
    n = a.shape[0]
    if (a.shape != (n, n) or q.ndim not in (2, 3) or q.shape[-2:] != (n, n)
            or q.size == 0 < n):
        raise ReproError(
            f"vanloan_gramian shapes mismatch: A {a.shape}, BB^T {q.shape}")
    if dt < 0.0:
        raise ReproError(f"segment duration must be non-negative, got {dt}")
    if dt == 0.0:
        return np.eye(n), np.zeros(q.shape)

    # The upper-left block of the Van Loan matrix is −A, whose exponential
    # explodes for stiff stable segments (‖A‖dt in the hundreds is routine
    # for switch time constants inside a clock phase). Split the segment
    # into 2^k substeps short enough for the block exponential, then
    # compose with the exact doubling identity
    #     (Φ, Q) ∘ (Φ, Q) = (Φ², Φ Q Φᵀ + Q).
    a_norm = np.linalg.norm(a, 1)
    norm = a_norm * dt
    doublings = 0
    if norm > _BLOCK_NORM_LIMIT:
        doublings = int(np.ceil(np.log2(norm / _BLOCK_NORM_LIMIT)))
    h = dt / (2 ** doublings)

    # All the block exponential and the doubling do to the ``Q`` block
    # is linear in ``Q``, so a drive scaled by a power of two yields its
    # Gramian scaled by it, exactly.  ``expm`` picks its Padé order and
    # scaling from the block's (a stack's largest) 1-norm, which a
    # dominant drive would over-scale: every drive is scaled down to the
    # binary magnitude of the smallest nonzero drive, and at most to
    # ‖A‖₁'s plus the slack.
    norms = np.abs(q).sum(axis=-2).max(axis=-1)
    exponents = np.frexp(norms)[1]
    target = min(exponents[norms > 0.0].min(initial=exponents.max()),
                 np.frexp(a_norm)[1] + _DRIVE_EXPONENT_SLACK)
    shifts = np.maximum(exponents - target, 0)[..., None, None]
    block = np.zeros(q.shape[:-2] + (2 * n, 2 * n))
    block[..., :n, :n] = -a
    block[..., :n, n:] = np.ldexp(q, -shifts)
    block[..., n:, n:] = a.T
    g = expm(block * h)
    # Every member of a stack carries the same ``Φ`` block.
    phi = (g if g.ndim == 2 else g[0])[n:, n:].T
    gramian = symmetrize(phi @ g[..., :n, n:])
    for _ in range(doublings):
        gramian = symmetrize(phi @ gramian @ phi.T + gramian)
        phi = phi @ phi
    gramian = np.ldexp(gramian, shifts)
    return phi, gramian


def phase_discretization(a_matrix: ArrayLike, b_matrix: ArrayLike,
                         dt: float, substeps: int = 1
                         ) -> "list[tuple[FloatArray, FloatArray]]":
    """Discretize one clock phase into ``substeps`` equal LTI segments.

    Returns a list of ``(Phi, Q)`` pairs, one per segment, each produced by
    :func:`vanloan_gramian` with ``BB^T = b_matrix @ b_matrix.T``. Splitting
    a phase into several exact segments costs nothing in accuracy and gives
    the cross-spectral quadrature a finer grid.
    """
    if substeps < 1:
        raise ReproError(f"substeps must be >= 1, got {substeps}")
    a = np.asarray(a_matrix, dtype=float)
    b = np.asarray(b_matrix, dtype=float)
    bbt = b @ b.T
    h = dt / substeps
    phi, gram = vanloan_gramian(a, bbt, h)
    # All segments of an LTI phase are identical; reuse the one computation.
    return [(phi, gram)] * substeps
