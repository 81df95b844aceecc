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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

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
        return accumulate_period_gramian(segment_runs(
            self.segments, [seg.gramian for seg in self.segments]))

    def shifted_propagators(self, omega: float) -> list[ComplexArray]:
        """Segment propagators of the dynamics ``A(t) − jωI``.

        Returns a list of complex matrices ``e^{-jω h_k} Phi_k`` — the
        frequency-sharing identity that lets the MFT engine sweep
        frequencies at the cost of one complex scalar per segment.
        """
        return [np.exp(-1j * omega * seg.duration) * seg.phi
                for seg in self.segments]


#: A maximal run of segments ``start … stop − 1`` sharing one ``Φ`` and
#: one noise-drive object, with no jump before the last:
#: ``(start, stop, phi, gramian, jump)``.  Over the run the covariance
#: follows ``K ← Φ K Φᵀ + Q`` with one ``(Φ, Q)``; ``jump`` (``None`` =
#: identity) follows segment ``stop − 1``.  ``gramian`` is ``(n, n)``, or
#: an ``(m, n, n)`` stack of ``m`` drives on the same dynamics.  A plain
#: tuple: a sampled system has one run per segment.
SegmentRun = tuple[int, int, FloatArray, FloatArray, Optional[FloatArray]]


def segment_runs(segments: Sequence[Segment],
                 gramians: Sequence[FloatArray]) -> list[SegmentRun]:
    """Split a segment chain driven by ``gramians`` into maximal runs.

    ``gramians[k]`` is segment ``k``'s noise drive (its own Gramian, or
    a per-source stack).  A run ends where the next segment has another
    ``phi`` or drive *object*, or where a jump follows: ``discretize``
    shares one ``(Φ, Gramian)`` per relative step of a phase, so a
    uniform phase is one run and a sampled system (a propagator per
    segment) has runs of length 1.
    """
    runs: list[SegmentRun] = []
    start = 0
    phi = segments[0].phi
    gram = gramians[0]
    jump: FloatArray | None = None
    for k, (seg, seg_gram) in enumerate(zip(segments, gramians)):
        if seg.phi is not phi or seg_gram is not gram or jump is not None:
            runs.append((start, k, phi, gram, jump))
            start, phi, gram = k, seg.phi, seg_gram
        jump = seg.jump
    runs.append((start, len(segments), phi, gram, jump))
    return runs


def accumulate_period_gramian(
        runs: Sequence[SegmentRun]) -> tuple[FloatArray, FloatArray]:
    """``(Phi_T, Q_T)`` of a segment chain split into runs.

    Each run contributes its ``(Φ^L, S_L)``, ``S_L = Σ_{i<L} Φⁱ Q Φⁱᵀ``,
    by binary powering in ``log₂ L`` steps (:func:`run_power`); a run of
    length 1 contributes its own ``(Φ, Q)``, one recursion step.  The
    result agrees with the segment-by-segment recursion to rounding.  A
    stacked drive (``(m, n, n)`` Gramians) carries the leading axis
    through every product, so ``Q_T[i]`` is bit-identical to the runs
    driven by drive ``i`` alone.  ``Phi_T`` does not depend on the drive
    and is never stacked.
    """
    _start, _stop, first_phi, first_gram, _jump = runs[0]
    phi_t = np.eye(first_phi.shape[0])
    gram_t = np.zeros(first_gram.shape)
    for start, stop, phi, gram, jump in runs:
        if stop - start > 1:
            phi, gram = run_power(phi, gram, stop - start)
        gram_t = phi @ gram_t @ phi.T
        gram_t += gram
        phi_t = phi @ phi_t
        if jump is not None:
            gram_t = jump @ gram_t @ jump.T
            phi_t = jump @ phi_t
    return phi_t, 0.5 * (gram_t + np.swapaxes(gram_t, -1, -2))


def run_power(phi: FloatArray, gram: FloatArray,
              length: int) -> tuple[FloatArray, FloatArray]:
    """``(Φ^L, S_L)`` with ``S_L = Σ_{i<L} Φⁱ Q Φⁱᵀ``, in ``log₂ L`` steps.

    Doubling uses ``S_{2a} = Φ^a S_a Φ^{aᵀ} + S_a`` and a set bit
    ``S_{a+1} = Φ S_a Φᵀ + Q``; ``(Φ, Q)`` itself is returned for
    ``L = 1``.
    """
    power, total = phi, gram
    for bit in bin(length)[3:]:
        total = power @ total @ power.T + total
        power = power @ power
        if bit == "1":
            total = phi @ total @ phi.T + gram
            power = phi @ power
    return power, total
