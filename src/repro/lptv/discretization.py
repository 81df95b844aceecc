"""One-period discretization: the common currency of the noise engines.

A :class:`PeriodDiscretization` covers exactly one period with segments,
and holds them as *runs*: maximal stretches of consecutive segments of
one clock phase that share one state propagator ``Phi``, one noise
Gramian ``Q``, one ``A`` and one ``B``, with an optional instantaneous
jump map after the last.  Propagators and Gramians are *exact* for
piecewise-LTI systems, whose discretizer emits one run per phase and
distinct step (one per phase on a uniform grid), and second-order
midpoint approximations for sampled systems, whose every segment is its
own run.  The segment times are two arrays, so the set-up work of the
engines (grouping, covariance, preflight, the per-source split) costs
per run, not per segment; the per-segment view
(:attr:`PeriodDiscretization.segments`) is built only when a reference
engine asks for it.

The frequency-sharing trick at the heart of the MFT engine lives here:
for the frequency-shifted dynamics ``A(t) − jωI`` the segment propagator
is simply ``e^{-jωh} Phi`` — the expensive real exponentials are computed
once and reused for every analysis frequency.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from ..errors import ReproError
from ..typing import ArrayLike, ComplexArray, FloatArray
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


@dataclass(frozen=True)
class PhaseRun:
    """Segments ``start … stop − 1`` of one phase sharing every matrix.

    Each member segment has the run's ``phi``, ``gramian``, ``b_matrix``
    and ``a_matrix`` objects and its ``phase_name``; ``jump`` (``None`` =
    identity) follows segment ``stop − 1`` only.
    """

    start: int
    stop: int
    phi: np.ndarray
    gramian: np.ndarray
    b_matrix: np.ndarray
    jump: np.ndarray | None
    a_matrix: np.ndarray | None
    phase_name: str


@dataclass(init=False, eq=False)
class PeriodDiscretization:
    """A chain of segments covering one period ``[0, T]``, held in runs.

    Built either from ``runs`` (:class:`PhaseRun`, tiling segments ``0 …
    S − 1`` in order) with the segment times ``t_start``/``t_end``, or
    from a list of ``segments``, split into runs by :func:`segment_runs`'
    rule.  ``dataclasses.replace(disc, segments=...)`` therefore rebuilds
    a discretization from an edited segment list.
    """

    period: float
    n_states: int
    #: True when propagators/Gramians are exact (piecewise-LTI source).
    exact: bool
    runs: tuple[PhaseRun, ...] = field(init=False)
    #: Segment start and end times, shape ``(S,)``, read-only.
    t_start: FloatArray = field(init=False, repr=False)
    t_end: FloatArray = field(init=False, repr=False)

    def __init__(self, segments: Sequence[Segment] | None = None, *,
                 period: float, n_states: int, exact: bool = True,
                 runs: Sequence[PhaseRun] | None = None,
                 t_start: ArrayLike | None = None,
                 t_end: ArrayLike | None = None) -> None:
        if segments is not None:
            if runs is not None or t_start is not None or t_end is not None:
                raise ReproError("a discretization takes segments or runs "
                                 "with their times, not both")
            if not segments:
                raise ReproError("empty discretization")
            runs = [PhaseRun(start, stop, phi, gram, segments[start].b_matrix,
                             jump, segments[start].a_matrix,
                             segments[start].phase_name)
                    for start, stop, phi, gram, jump in segment_runs(
                        segments, [seg.gramian for seg in segments])]
            t_start = [seg.t_start for seg in segments]
            t_end = [seg.t_end for seg in segments]
        if runs is None or t_start is None or t_end is None:
            raise ReproError("a discretization takes segments, or runs "
                             "with t_start and t_end")
        if not runs:
            raise ReproError("empty discretization")
        self.period = period
        self.n_states = n_states
        self.exact = exact
        self.runs = tuple(runs)
        self.t_start = _read_only(t_start)
        self.t_end = _read_only(t_end)
        self._check_chain()

    def _check_chain(self) -> None:
        """Runs tile the segments in order; the times tile the period."""
        n_seg = self.t_end.size
        if self.t_start.shape != (n_seg,):
            raise ReproError(f"{self.t_start.size} segment start times for "
                             f"{n_seg} segment end times")
        stop = 0
        for run in self.runs:
            if run.start != stop or run.stop <= run.start:
                raise ReproError(f"run [{run.start}, {run.stop}) does not "
                                 f"continue the chain at segment {stop}")
            stop = run.stop
        if stop != n_seg:
            raise ReproError(f"runs cover {stop} of {n_seg} segments")
        tol = SCHEDULE_TILE_RTOL * max(self.period, 1.0)
        expected = np.concatenate(([0.0], self.t_end[:-1]))
        gaps = np.flatnonzero(np.abs(self.t_start - expected) > tol)
        if gaps.size:
            raise ReproError(f"segment chain has a gap at "
                             f"t={float(self.t_start[gaps[0]])}")
        covered = float(self.t_end[-1])
        if abs(covered - self.period) > tol:
            raise ReproError(f"segments cover [0, {covered}], expected "
                             f"period {self.period}")

    @property
    def n_segments(self) -> int:
        return int(self.t_end.size)

    @property
    def durations(self) -> FloatArray:
        """Segment durations ``t_end − t_start``, shape ``(S,)``."""
        return self.t_end - self.t_start

    @property
    def grid(self) -> FloatArray:
        """All segment boundary times, shape ``(S + 1,)``."""
        return np.concatenate((self.t_start[:1], self.t_end))

    @cached_property
    def segments(self) -> list[Segment]:
        """The per-segment view, built on first access and cached.

        Segments of one run share its matrix objects; the jump sits on a
        run's last segment.  Only the reference engines walk it.
        """
        starts = self.t_start.tolist()
        ends = self.t_end.tolist()
        return [Segment(t_start=starts[k], t_end=ends[k], phi=run.phi,
                        gramian=run.gramian, b_matrix=run.b_matrix,
                        jump=run.jump if k == run.stop - 1 else None,
                        a_matrix=run.a_matrix, phase_name=run.phase_name)
                for run in self.runs for k in range(run.start, run.stop)]

    def with_runs(self, runs: Sequence[PhaseRun]) -> PeriodDiscretization:
        """The same segment times and period with other run records."""
        return PeriodDiscretization(
            runs=runs, t_start=self.t_start, t_end=self.t_end,
            period=self.period, n_states=self.n_states, exact=self.exact)

    def driven_runs(self, drives: Sequence[FloatArray]) -> list[SegmentRun]:
        """The runs as :data:`SegmentRun` tuples, run ``i`` driven by
        ``drives[i]`` (its own Gramian, or a stack of drives)."""
        if len(drives) != len(self.runs):
            raise ReproError(f"{len(drives)} noise drives for "
                             f"{len(self.runs)} runs")
        return [(run.start, run.stop, run.phi, drive, run.jump)
                for run, drive in zip(self.runs, drives)]

    def monodromy(self) -> FloatArray:
        """One-period state transition matrix, jumps included.

        One left-multiplication per segment, as the segment recursion
        has it (a power of a run's ``Φ`` would round differently).
        """
        phi = np.eye(self.n_states)
        for run in self.runs:
            for _ in range(run.start, run.stop):
                phi = run.phi @ phi
            if run.jump is not None:
                phi = run.jump @ phi
        return phi

    def period_gramian(self) -> tuple[FloatArray, FloatArray]:
        """``(Phi_T, Q_T)``: one-period propagator and noise Gramian.

        ``x(T) = Phi_T x(0) + w`` with ``w ~ N(0, Q_T)`` — the exact
        one-period discrete-time model of the switched SDE.
        """
        return accumulate_period_gramian(
            self.driven_runs([run.gramian for run in self.runs]))

    def shifted_propagators(self, omega: float) -> list[ComplexArray]:
        """Segment propagators of the dynamics ``A(t) − jωI``.

        Returns a list of complex matrices ``e^{-jω h_k} Phi_k`` — the
        frequency-sharing identity that lets the MFT engine sweep
        frequencies at the cost of one complex scalar per segment.
        """
        durations = self.durations.tolist()
        return [np.exp(-1j * omega * durations[k]) * run.phi
                for run in self.runs for k in range(run.start, run.stop)]


def _read_only(times: ArrayLike) -> FloatArray:
    """``times`` as a float array nothing can write through."""
    array = np.asarray(times, dtype=float)
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


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
    ``phi``, ``A``, ``B`` or drive *object* or another phase name, or
    where a jump follows: ``discretize`` shares one ``(Φ, Gramian)`` per
    relative step of a phase, so a uniform phase is one run and a
    sampled system (a propagator per segment) has runs of length 1.
    """
    runs: list[SegmentRun] = []
    start = 0
    first = segments[0]
    gram = gramians[0]
    jump: FloatArray | None = None
    for k, (seg, seg_gram) in enumerate(zip(segments, gramians)):
        if (jump is not None or seg_gram is not gram
                or seg.phi is not first.phi
                or seg.a_matrix is not first.a_matrix
                or seg.b_matrix is not first.b_matrix
                or seg.phase_name != first.phase_name):
            runs.append((start, k, first.phi, gram, jump))
            start, first, gram = k, seg, seg_gram
        jump = seg.jump
    runs.append((start, len(segments), first.phi, gram, jump))
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
