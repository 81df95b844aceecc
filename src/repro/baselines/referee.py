"""Exact averaged PSD of a piecewise-LTI system: a referee with no grid.

Both MFT kernels (``mft`` and ``spectral-batch``) interpolate the
forcing ``K(t)·l`` linearly inside a segment, so they share an O(h²)
discretization error that no check between them can see.  This module
computes the same quantity with no segment grid at all, so tests can
measure that error.

Per clock phase the covariance ``K``, the cross-spectral envelope ``q``
and its running integral obey one linear, time-invariant, affine system
(the engine's equations, :mod:`repro.mft.engine`)::

    dq/dt      = (A − jωI) q + (I ⊗ lᵀ) vec K
    d vec K/dt = (A ⊗ I + I ⊗ A) vec K + vec(B Bᵀ)
    d∫q/dt     = q

with row-major ``vec``.  On the augmented state ``z = [q; vec K; ∫q; 1]``
(size ``2n + n² + 1``) one phase is one matrix exponential, and a phase
end jump ``J`` maps ``q → Jq`` and ``vec K → (J ⊗ J) vec K``.  Composing
the phases gives the period map ``P``; the periodic ``(q₀, K₀)`` solves
``(I − P_xx)[q₀; k₀] = P_x1`` and the double-sided PSD is
``2·Re(l·∫q)/T``.

It costs O(n⁶) per frequency (one ``expm`` of the augmented matrix per
phase), so it is a referee for small systems, not an engine.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError
from ..linalg.checked import checked_solve
from ..lptv.system import PiecewiseLTISystem
from ..typing import FloatArray

__all__ = ["referee_psd"]


def _augmented_generator(a_matrix, bbt, l_row, omega, scale, period):
    """The affine generator of ``[q; vec K; ∫q/T; 1]`` in one phase.

    ``bbt`` is the phase's ``B Bᵀ``, divided by ``scale``, and the
    integral state is divided by ``period``: both rescalings keep the
    blocks of order one and are undone in :func:`referee_psd`.
    Returns a complex ``(2n + n² + 1)`` square matrix.
    """
    a = np.asarray(a_matrix, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    q, k = slice(0, n), slice(n, n + n * n)
    s = slice(n + n * n, 2 * n + n * n)
    size = 2 * n + n * n + 1
    gen = np.zeros((size, size), dtype=complex)
    gen[q, q] = a - 1j * omega * eye
    gen[q, k] = np.kron(eye, np.asarray(l_row, dtype=float)[None, :])
    gen[k, k] = np.kron(a, eye) + np.kron(eye, a)
    gen[k, -1] = np.asarray(bbt, dtype=float).ravel() / scale
    gen[s, q] = eye / period
    return gen


def referee_psd(system, frequencies) -> FloatArray:
    """Averaged double-sided output PSD [V²/Hz] with no segment grid.

    ``system`` must be a :class:`~repro.lptv.system.PiecewiseLTISystem`
    (its phases are exact LTI pieces) and its first output row is
    read; ``frequencies`` are in Hz.  Each
    frequency takes one matrix exponential of the ``2n + n² + 1``
    augmented system per phase (module docstring), so the result
    carries no discretization error, only rounding.
    """
    if not isinstance(system, PiecewiseLTISystem):
        raise ReproError(
            "referee_psd needs a PiecewiseLTISystem, got "
            f"{type(system).__name__}")
    from scipy.linalg import expm

    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    l_row = np.asarray(system.output_matrix, dtype=float)[0]
    n = system.n_states
    n_x = n + n * n
    period = system.period
    bbts = [phase.b_matrix @ phase.b_matrix.T for phase in system.phases]
    # PSD, K and q are linear in B Bᵀ: solve at unit scale, rescale last.
    scale = max(float(np.max(np.abs(bbt))) for bbt in bbts) or 1.0
    jumps = []
    for phase in system.phases:
        jump = np.eye(2 * n + n * n + 1)
        if phase.end_jump is not None:
            jump[:n, :n] = phase.end_jump
            jump[n:n_x, n:n_x] = np.kron(phase.end_jump, phase.end_jump)
        jumps.append(jump)
    psd = np.empty(freqs.shape)
    for idx, f in enumerate(freqs):
        omega = 2.0 * np.pi * f
        period_map = np.eye(2 * n + n * n + 1, dtype=complex)
        for phase, bbt, jump in zip(system.phases, bbts, jumps):
            gen = _augmented_generator(phase.a_matrix, bbt, l_row, omega,
                                       scale, period)
            period_map = jump @ expm(gen * phase.duration) @ period_map
        x0 = checked_solve(np.eye(n_x) - period_map[:n_x, :n_x],
                           period_map[:n_x, -1],
                           context=f"referee periodic state at {f:g} Hz")
        integral = period_map[n_x:-1, :n_x] @ x0 + period_map[n_x:-1, -1]
        psd[idx] = 2.0 * scale * float(np.real(l_row @ integral))
    return psd
