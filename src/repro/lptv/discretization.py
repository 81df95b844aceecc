"""One-period discretization: the common currency of the noise engines.

A :class:`PeriodDiscretization` is a chain of segments covering exactly one
period. Each segment carries its *exact* state propagator ``Phi`` and
noise Gramian ``Q`` (for piecewise-LTI systems) or their second-order
midpoint approximations (for sampled systems), plus an optional
instantaneous jump map applied at the segment end.

The frequency-sharing trick at the heart of the MFT engine lives here:
for the frequency-shifted dynamics ``A(t) − jωI`` the segment propagator
is simply ``e^{-jωh} Phi`` — the expensive real exponentials are computed
once and reused for every analysis frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..typing import ComplexArray, FloatArray
from ..tolerances import SCHEDULE_TILE_RTOL


@dataclass(frozen=True)
class Segment:
    """One integration segment inside a period."""

    t_start: float
    t_end: float
    #: Exact propagator expm(A h) over the segment.
    phi: np.ndarray
    #: Exact accumulated noise covariance over the segment.
    gramian: np.ndarray
    #: Noise input matrix during the segment (for diagnostics).
    b_matrix: np.ndarray
    #: Optional instantaneous map applied at ``t_end`` (``None`` = identity).
    jump: np.ndarray | None
    #: State matrix during the segment — used for the exact affine steps
    #: (φ-functions) of the cross-spectral solver.
    a_matrix: np.ndarray | None = None
    phase_name: str = ""

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class PeriodDiscretization:
    """A chain of segments covering one period ``[0, T]``."""

    segments: list[Segment]
    period: float
    n_states: int
    #: True when propagators/Gramians are exact (piecewise-LTI source).
    exact: bool = True

    def __post_init__(self) -> None:
        if not self.segments:
            raise ReproError("empty discretization")
        t = 0.0
        for seg in self.segments:
            if (abs(seg.t_start - t)
                    > SCHEDULE_TILE_RTOL * max(self.period, 1.0)):
                raise ReproError(
                    f"segment chain has a gap at t={seg.t_start}")
            t = seg.t_end
        if (abs(t - self.period)
                > SCHEDULE_TILE_RTOL * max(self.period, 1.0)):
            raise ReproError(
                f"segments cover [0, {t}], expected period {self.period}")

    @property
    def grid(self) -> FloatArray:
        """All segment boundary times, shape ``(len(segments) + 1,)``."""
        return np.asarray([self.segments[0].t_start]
                          + [s.t_end for s in self.segments])

    def monodromy(self) -> FloatArray:
        """One-period state transition matrix, jumps included."""
        phi = np.eye(self.n_states)
        for seg in self.segments:
            phi = seg.phi @ phi
            if seg.jump is not None:
                phi = seg.jump @ phi
        return phi

    def period_gramian(self) -> tuple[FloatArray, FloatArray]:
        """``(Phi_T, Q_T)``: one-period propagator and noise Gramian.

        ``x(T) = Phi_T x(0) + w`` with ``w ~ N(0, Q_T)`` — the exact
        one-period discrete-time model of the switched SDE.
        """
        return accumulate_period_gramian(
            self.segments, [seg.gramian for seg in self.segments])

    def shifted_propagators(self, omega: float) -> list[ComplexArray]:
        """Segment propagators of the dynamics ``A(t) − jωI``.

        Returns a list of complex matrices ``e^{-jω h_k} Phi_k`` — the
        frequency-sharing identity that lets the MFT engine sweep
        frequencies at the cost of one complex scalar per segment.
        """
        return [np.exp(-1j * omega * seg.duration) * seg.phi
                for seg in self.segments]


def accumulate_period_gramian(segments, gramians):
    """``(Phi_T, Q_T)`` of a segment chain driven by per-segment Gramians.

    ``gramians[k]`` replaces segment ``k``'s own noise Gramian; it is an
    ``(n, n)`` matrix or an ``(m, n, n)`` stack of ``m`` independent noise
    drives on the same dynamics (one per noise source).  A stack runs the
    chain once with the leading axis broadcast through every product, so
    ``Q_T[i]`` is bit-identical to the chain driven by ``gramians[k][i]``
    alone.  ``Phi_T`` does not depend on the drive and is never stacked.
    """
    n = segments[0].phi.shape[0]
    phi = np.eye(n)
    gram = np.zeros(np.shape(gramians[0]))
    for seg, seg_gram in zip(segments, gramians):
        seg_phi = seg.phi
        gram = seg_phi @ gram @ seg_phi.T
        gram += seg_gram
        phi = seg_phi @ phi
        jump = seg.jump
        if jump is not None:
            gram = jump @ gram @ jump.T
            phi = jump @ phi
    return phi, 0.5 * (gram + np.swapaxes(gram, -1, -2))
