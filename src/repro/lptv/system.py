"""LPTV system containers.

See :mod:`repro.lptv` for the role these classes play. The containers are
deliberately dumb: they validate their data and know how to discretize one
period; all numerics live in the engines.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any, TypeGuard

import numpy as np

from ..errors import ReproError, ScheduleError
from ..typing import ArrayLike, FloatArray
from ..linalg.checked import eigenvalues
from ..linalg.vanloan import vanloan_gramian
from .discretization import PeriodDiscretization, PhaseRun, Segment


@dataclass(frozen=True)
class Phase:
    """One clock phase of a piecewise-LTI switched system.

    Parameters
    ----------
    name:
        Human-readable label ("track", "phi1", ...).
    duration:
        Phase length in seconds (> 0).
    a_matrix:
        State matrix ``A`` during the phase, shape ``(n, n)``.
    b_matrix:
        Noise input matrix ``B`` during the phase, shape ``(n, m)``. The
        columns are *scaled* so that each drives a unit-intensity Wiener
        process: ``B`` already contains the square roots of the
        double-sided source PSDs.
    end_jump:
        Optional instantaneous state map applied when the phase ends:
        ``x(t+) = M x(t-)``. Used for ideal-switch charge redistribution;
        ``None`` means identity.
    """

    name: str
    duration: float
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    end_jump: np.ndarray | None = None

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ReproError(f"phase {self.name!r}: A must be square, "
                             f"got {a.shape}")
        b = np.asarray(self.b_matrix, dtype=float)
        if b.ndim == 1:
            b = b.reshape(n, -1)
        if b.shape[0] != n:
            raise ReproError(f"phase {self.name!r}: B has {b.shape[0]} rows "
                             f"for {n} states")
        if self.duration <= 0.0:
            raise ScheduleError(
                f"phase {self.name!r}: duration must be positive, "
                f"got {self.duration}")
        jump = self.end_jump
        if jump is not None:
            jump = np.asarray(jump, dtype=float)
            if jump.shape != (n, n):
                raise ReproError(
                    f"phase {self.name!r}: end_jump must be ({n}, {n}), "
                    f"got {jump.shape}")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "end_jump", jump)

    @property
    def n_states(self) -> int:
        return int(self.a_matrix.shape[0])


@dataclass
class PiecewiseLTISystem:
    """A switched linear system: a cyclic sequence of LTI phases.

    This is the form every switched-capacitor circuit in
    :mod:`repro.circuits` reduces to. ``output_matrix`` (``L``, shape
    ``(p, n)``) selects the observed combinations of state variables;
    by default the full state is observed.
    """

    phases: list[Phase]
    output_matrix: np.ndarray | None = None
    state_names: list[str] = field(default_factory=list)
    output_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ScheduleError("a switched system needs at least one phase")
        n = self.phases[0].n_states
        for phase in self.phases:
            if phase.n_states != n:
                raise ReproError(
                    f"phase {phase.name!r} has {phase.n_states} states, "
                    f"expected {n}")
        if self.output_matrix is None:
            self.output_matrix = np.eye(n)
        else:
            self.output_matrix = np.atleast_2d(
                np.asarray(self.output_matrix, dtype=float))
            if self.output_matrix.shape[1] != n:
                raise ReproError(
                    f"output matrix has {self.output_matrix.shape[1]} "
                    f"columns for {n} states")
        if not self.state_names:
            self.state_names = [f"x{k}" for k in range(n)]
        if not self.output_names:
            self.output_names = [f"y{k}" for k in
                                 range(self.output_matrix.shape[0])]

    @property
    def n_states(self) -> int:
        return self.phases[0].n_states

    @property
    def n_outputs(self) -> int:
        matrix = self.output_matrix
        if matrix is None:  # pragma: no cover - __post_init__ fills it in
            raise ReproError("output matrix missing")
        return int(matrix.shape[0])

    @property
    def period(self) -> float:
        return float(sum(p.duration for p in self.phases))

    @property
    def boundaries(self) -> FloatArray:
        """Phase boundary times ``[0, d_0, d_0+d_1, ..., T]``, shape (P+1,)."""
        edges = [0.0]
        for phase in self.phases:
            edges.append(edges[-1] + phase.duration)
        return np.asarray(edges)

    def phase_at(self, t: float) -> tuple[int, Phase]:
        """Return ``(index, phase)`` active at time ``t`` (mod period)."""
        tau = float(t) % self.period
        edges = self.boundaries
        idx = int(np.searchsorted(edges, tau, side="right") - 1)
        idx = min(idx, len(self.phases) - 1)
        return idx, self.phases[idx]

    def a_of_t(self, t: float) -> FloatArray:
        return self.phase_at(t)[1].a_matrix

    def b_of_t(self, t: float) -> FloatArray:
        return self.phase_at(t)[1].b_matrix

    def discretize(self, segments_per_phase: int | Sequence[int] = 32,
                   boundary_layer: bool = False) -> PeriodDiscretization:
        """Exact one-period discretization via Van Loan Gramians.

        ``segments_per_phase`` (one int ``>= 1``, or one per phase; see
        :func:`segment_counts`) controls only the *grid density* used
        later for the cross-spectral quadrature; the per-segment
        propagators and Gramians are exact regardless.  Each phase
        computes one ``(Φ, Gramian)`` per distinct step and emits one
        run per stretch of equal steps: one run per phase on a uniform
        grid, whatever its segment count.

        ``boundary_layer`` optionally grades the grid at the start of
        each phase to resolve post-switching transients (nanosecond
        switch time constants inside 100 µs phases). The ablation
        benchmark (EXP-T2) shows it is *not* needed: grid-point values
        are exact regardless, only interpolated quantities see the fast
        transient, and reallocating half the budget into the first few
        nanoseconds starves the smooth region — the uniform default
        converges faster. The option is kept for experimentation.
        """
        counts = segment_counts(segments_per_phase, len(self.phases))
        runs: list[PhaseRun] = []
        t_start: list[FloatArray] = []
        t_end: list[FloatArray] = []
        t = 0.0
        first = 0
        for phase, count in zip(self.phases, counts):
            edges = _phase_edges(phase, count, boundary_layer)
            steps = np.diff(edges)
            # One (Φ, Gramian) per distinct relative step, rounded as
            # numpy rounds (Python's round() differs in the last digit).
            keys = np.round(steps / phase.duration, 15)
            t_start.append(t + edges[:-1])
            t_end.append(t + edges[1:])
            bbt = phase.b_matrix @ phase.b_matrix.T
            cache: dict[float, tuple[FloatArray, FloatArray]] = {}
            bounds = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
            for start, stop in zip([0, *bounds], [*bounds, count]):
                key = float(keys[start])
                if key not in cache:
                    cache[key] = vanloan_gramian(
                        phase.a_matrix, bbt, float(steps[start]))
                phi, gram = cache[key]
                runs.append(PhaseRun(
                    start=first + start, stop=first + stop, phi=phi,
                    gramian=gram, b_matrix=phase.b_matrix,
                    jump=phase.end_jump if stop == count else None,
                    a_matrix=phase.a_matrix, phase_name=phase.name))
            t += phase.duration
            first += count
        return PeriodDiscretization(
            runs=runs, t_start=np.concatenate(t_start),
            t_end=np.concatenate(t_end), period=self.period,
            n_states=self.n_states, exact=True)


def segment_counts(segments_per_phase: object,
                   n_phases: int) -> tuple[int, ...]:
    """``segments_per_phase`` as one validated segment count per phase.

    Takes one int ``>= 1`` for every phase, or a list, tuple or 1-D
    integer array of ``n_phases`` such ints.  Anything else — a bool, a
    float, a string, a count below 1, a sequence of the wrong length —
    raises :class:`~repro.errors.ScheduleError` naming the value: counts
    are validated, never coerced.
    """
    value = segments_per_phase
    if _is_count(value):
        counts = (int(value),) * n_phases
    elif (isinstance(value, (list, tuple))
          or (isinstance(value, np.ndarray) and value.ndim == 1)):
        items = list(value)
        if not all(_is_count(item) for item in items):
            raise ScheduleError(
                "segments_per_phase must be an int >= 1 or one such int "
                f"per phase, got {value!r}")
        counts = tuple(int(item) for item in items)
        if len(counts) != n_phases:
            raise ScheduleError(
                f"{len(counts)} segment counts for {n_phases} phases: "
                f"segments_per_phase={value!r}")
    else:
        raise ScheduleError(
            "segments_per_phase must be an int >= 1 or one such int per "
            f"phase, got {value!r}")
    if any(count < 1 for count in counts):
        raise ScheduleError(
            f"segments_per_phase must be >= 1, got {value!r}")
    return counts


def _is_count(value: object) -> TypeGuard[int | np.integer[Any]]:
    """An integer that is not a bool (``True`` is an ``int`` too)."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


@dataclass
class SampledLPTVSystem:
    """An LPTV system given by periodic matrix-valued callables.

    Used by the translinear and oscillator extensions, where ``A(t)`` comes
    from linearising around a numerically computed large-signal steady
    state. Discretization uses midpoint matrix exponentials, which is
    second-order accurate — consistent with the trapezoidal rule the paper
    uses.
    """

    a_of_t: Callable[[float], ArrayLike]
    b_of_t: Callable[[float], ArrayLike]
    period: float
    n_states: int
    output_matrix: np.ndarray | None = None
    state_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ScheduleError(f"period must be positive: {self.period}")
        if self.output_matrix is None:
            self.output_matrix = np.eye(self.n_states)
        else:
            self.output_matrix = np.atleast_2d(
                np.asarray(self.output_matrix, dtype=float))
        if not self.state_names:
            self.state_names = [f"x{k}" for k in range(self.n_states)]

    @property
    def n_outputs(self) -> int:
        matrix = self.output_matrix
        if matrix is None:  # pragma: no cover - __post_init__ fills it in
            raise ReproError("output matrix missing")
        return int(matrix.shape[0])

    def discretize(self, n_segments: object = 256) -> PeriodDiscretization:
        """Discretize one period on a uniform grid of ``n_segments``.

        The count is validated as one phase's (:func:`segment_counts`:
        an int, or a one-element list, tuple or 1-D int array) and must
        be at least 2; anything else raises
        :class:`~repro.errors.ScheduleError` naming the value.
        """
        (count,) = segment_counts(n_segments, 1)
        if count < 2:
            raise ScheduleError(
                "need at least 2 segments per period, got "
                f"n_segments={n_segments!r}")
        grid = np.linspace(0.0, self.period, count + 1)
        segments = []
        for k in range(count):
            t0, t1 = grid[k], grid[k + 1]
            h = t1 - t0
            t_mid = 0.5 * (t0 + t1)
            a_mid = np.atleast_2d(np.asarray(self.a_of_t(t_mid), dtype=float))
            b_mid = np.asarray(self.b_of_t(t_mid), dtype=float)
            if b_mid.ndim == 1:
                b_mid = b_mid.reshape(self.n_states, -1)
            phi, gram = vanloan_gramian(a_mid, b_mid @ b_mid.T, h)
            segments.append(Segment(
                t_start=t0, t_end=t1, phi=phi, gramian=gram,
                b_matrix=b_mid, jump=None, a_matrix=a_mid,
                phase_name=f"seg{k}"))
        return PeriodDiscretization(
            segments=segments, period=self.period,
            n_states=self.n_states, exact=False)


def _phase_edges(phase: Phase, count: int,
                 boundary_layer: bool) -> FloatArray:
    """Segment edge offsets within one phase, graded when needed.

    The fastest time constant is taken from the spectral abscissa of the
    phase's ``A``. When it is much shorter than the phase, a logarithmic
    boundary layer (half the budget, at least 6 segments) covers the
    first ~12 fast time constants and the remainder is uniform; the
    total segment count always equals ``count``.
    """
    duration = phase.duration
    if not boundary_layer or count < 8:
        return np.linspace(0.0, duration, count + 1)
    eigs = eigenvalues(phase.a_matrix, context="phase-edge grading")
    rate = float(np.max(-eigs.real)) if eigs.size else 0.0
    if rate <= 0.0:
        return np.linspace(0.0, duration, count + 1)
    tau = 1.0 / rate
    layer_end = 12.0 * tau
    if layer_end > 0.2 * duration:
        return np.linspace(0.0, duration, count + 1)
    n_layer = max(6, count // 2)
    n_rest = count - n_layer
    # Logarithmic from tau/8 to the layer end (first edge at tau/8 keeps
    # the very first segment shorter than the transient itself).
    log_edges = np.geomspace(tau / 8.0, layer_end, n_layer)
    rest = np.linspace(layer_end, duration, n_rest + 1)[1:]
    return np.concatenate([[0.0], log_edges, rest])


def lti_phase_system(a_matrix: ArrayLike, b_matrix: ArrayLike,
                     period: float = 1.0,
                     output_matrix: ArrayLike | None = None,
                     ) -> PiecewiseLTISystem:
    """Wrap a plain LTI system as a one-phase switched system.

    Convenience used by the LTI baseline and by tests: an LTI circuit is
    the degenerate case of an LPTV circuit, and every periodic-steady-state
    engine must reduce to the stationary answer on it.
    """
    phase = Phase(name="lti", duration=float(period),
                  a_matrix=np.asarray(a_matrix, dtype=float),
                  b_matrix=np.asarray(b_matrix, dtype=float))
    selector = (None if output_matrix is None
                else np.atleast_2d(np.asarray(output_matrix, dtype=float)))
    return PiecewiseLTISystem(phases=[phase], output_matrix=selector)
