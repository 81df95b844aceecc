"""Shared per-discretization cache: compute frequency-independent work once.

A PSD sweep evaluates the same circuit at 100+ frequencies, yet everything
except the final complex fixed point is *frequency independent*: the
per-segment propagators and Van Loan noise Gramians, the periodic
covariance ``K(t)``, the cross-spectral forcing ``K(t) l``, the monodromy
matrix, and — the insight this module adds — the *power stacks* of the
clock phases' propagators that assemble the one-period forcing vector. A
:class:`SweepContext` computes each of these once, keyed by the
discretization, and every engine (MFT, brute force, Monte Carlo) draws
from it instead of rebuilding.

The context also carries :meth:`SweepContext.solve_shifted`, a fast
re-formulation of :func:`repro.lptv.periodic_solve.periodic_steady_state`
built on two identities of the frequency-shifted dynamics
``A(t) − jωI``:

* the shifted one-period map is a *scalar* multiple of the cached real
  monodromy, ``M_ω = e^{-jωT} M_0`` (segment phase factors commute with
  the jumps), so the per-frequency ``O(S n³)`` propagator composition
  collapses to one complex scale;
* on a uniform grid every segment of a clock phase shares one real
  ``Φ = e^{Ah}``, so a *run* of such segments (no jump before its last)
  carries its forcing to its end as
  ``y = Σ_k e^{-jω(t_end[k₁] − t_end[k])} Φ^{k₁−k} g_k(ω)``: one product
  of the phase-weighted forcing against the cached real power stack
  ``Φ⁰ … Φ^{L−1}`` of the phase, and the runs compose into
  ``g_ω`` in one pass over runs, not over segments.

The per-segment forcing integrals ``(I1, I2)`` are grouped by segment
matrix: segments sharing one ``A`` and one propagator object ``Φ`` form a
group. The discretizer computes one ``(Φ, Gramian)`` per distinct step
and shares those objects across the same-length segments of a phase, so
a piecewise-LTI circuit with uniform segments has one group per phase,
not one per segment. Keying on the shared ``Φ`` rather than on the float
``t_end − t_start`` keeps ulp-different segment lengths of one phase in
one group. The period-integral resolvent solves are likewise grouped —
one linear solve per group instead of one per segment.

Both paths compute the same quantities; the fast path reorders linear
algebra (sums before solves, scalar scaling before products), so results
agree with the reference to rounding — the equivalence suite pins this
at ``≤ 1e-12`` relative.

Each analysis owns its context: an analyzer builds
``SweepContext(system, 64)`` unless it is passed one as ``context=``, and
the context lives as long as the analysis.  Reuse *across* analyses is
opt-in: :func:`sweep_context_for` draws contexts from a module registry
that fingerprints the system content — phase durations, state/noise/jump
matrices, segment counts — so that *mutating* a system or requesting a
different density misses the cache instead of returning stale numerics.
No library path inserts into the registry; a corner sweep only looks its
dynamics roots up there.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..diagnostics.preflight import run_preflight
from ..errors import ReproError, SingularMatrixError
from ..linalg.checked import checked_solve
from ..linalg.lyapunov import (
    fixed_point_condition,
    solve_linear_fixed_point,
    solve_regularized_fixed_point,
)
from ..linalg.phi import affine_step_integrals
from ..linalg.vanloan import vanloan_gramian
from ..lptv.periodic_solve import PeriodicSolution, forcing_from_samples
from ..lptv.system import segment_counts
from ..noise.covariance import (
    PeriodicCovariance,
    periodic_covariance,
    steady_state_samples,
)
from ..tolerances import (
    FIXED_POINT_RIDGE,
    RESOLVENT_NORM_THRESHOLD,
    SCHEDULE_TILE_RTOL,
)

logger = logging.getLogger(__name__)

#: Bytes of cached arrays the registry's contexts may hold together (see
#: :func:`sweep_context_for`).
_REGISTRY_CAP_BYTES = 16 * 2**20


@dataclass
class CacheStats:
    """Hit/miss/evict counters per category of one cache.

    The context registry (:data:`registry_stats`) and the service's
    result store count with it.  Counters are monotonic — nothing resets
    them, so deltas between two :meth:`snapshot` calls are meaningful.
    Increments are lock-guarded: a :class:`~repro.service.JobQueue`
    dispatcher thread and its caller can share one cache, and a lost
    update would undercount.  The lock is dropped on pickle and rebuilt.
    """

    hits: dict = field(default_factory=dict)
    misses: dict = field(default_factory=dict)
    evictions: dict = field(default_factory=dict)

    def __post_init__(self):
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def hit(self, category):
        with self._lock:
            self.hits[category] = self.hits.get(category, 0) + 1

    def miss(self, category):
        with self._lock:
            self.misses[category] = self.misses.get(category, 0) + 1

    def evict(self, category):
        with self._lock:
            self.evictions[category] = self.evictions.get(category, 0) + 1

    def snapshot(self):
        """Point-in-time copy of all counters (for delta computation)."""
        with self._lock:
            return {
                "hits": dict(self.hits),
                "misses": dict(self.misses),
                "evictions": dict(self.evictions),
            }

    @staticmethod
    def delta(before, after):
        """Per-category counter increments between two snapshots."""
        out = {}
        for kind in ("hits", "misses", "evictions"):
            diffs = {}
            prior = before.get(kind, {})
            for category, count in after.get(kind, {}).items():
                inc = count - prior.get(category, 0)
                if inc:
                    diffs[category] = inc
            out[kind] = diffs
        return out

    def total_hits(self):
        return int(sum(self.hits.values()))

    def total_misses(self):
        return int(sum(self.misses.values()))

    def total_evictions(self):
        return int(sum(self.evictions.values()))

    def to_dict(self):
        """JSON-friendly counters (the service store's ``telemetry()``)."""
        snap = self.snapshot()
        return {
            "hits": snap["hits"],
            "misses": snap["misses"],
            "evictions": snap["evictions"],
            "total_hits": int(sum(snap["hits"].values())),
            "total_misses": int(sum(snap["misses"].values())),
            "total_evictions": int(sum(snap["evictions"].values())),
        }

    def __str__(self):
        return (f"CacheStats(hits={self.total_hits()}, "
                f"misses={self.total_misses()})")


@dataclass
class _SegmentGroup:
    """Segments sharing one ``A`` and one propagator ``Φ`` object.

    Usually one clock phase: the discretizer shares ``Φ = e^{Ah}`` across
    the same-length segments of a phase. ``duration`` is the first
    member's; every member's lies within the schedule tiling tolerance
    of it (checked by :func:`build_structure`).
    """

    a_matrix: np.ndarray
    duration: float
    #: Indices into ``disc.segments`` of the member segments.
    indices: np.ndarray
    #: Representative real propagator ``e^{Ah}`` of the group.
    phi: np.ndarray
    #: Indices into the structure's ``runs`` of the group's runs.
    runs: list = field(default_factory=list)


@dataclass
class _Run:
    """Consecutive segments of one group with no jump before the last.

    Segments ``start … stop − 1`` share the group's ``Φ``, so the run
    carries a state through ``Φ^L`` (``L = stop − start``) and a
    segment's forcing through a power of ``Φ``; a jump, if any, follows
    the last segment.
    """

    group: int
    start: int
    stop: int
    #: ``t_end[stop − 1] − t_end[k]`` for each member ``k``: the phase
    #: lag of the member's forcing at the run end (0 for the last).
    lags: np.ndarray
    #: ``t_end[stop − 1] − t_start[start]``: the run's duration.
    span: float


@dataclass
class _SweepStructure:
    """Frequency-independent arrays derived from one discretization."""

    #: Per-segment durations and end times.  A segment's real
    #: propagator is its group's ``phi`` (``groups[group_of[k]].phi``).
    durations: np.ndarray
    t_end: np.ndarray
    #: Per-segment jump (identity where absent) and a has-jump mask.
    has_jump: np.ndarray
    jumps: list
    #: Per group, its propagator's powers ``Φ⁰ … Φ^{L−1}`` for ``L`` its
    #: longest run, reversed and transposed:
    #: ``powers[g][:, q, :] = (Φ^{L−1−q})ᵀ``, so that
    #: ``powers[g].reshape(n·L, n).T`` maps a run's state-major forcing
    #: ``x[j, p]`` (segment ``start + p``) to the run end.
    powers: list
    #: Maximal runs of one group's consecutive segments with no jump
    #: before the last, in period order (:class:`_Run`).
    runs: list
    #: Segment groups by shared ``(A, Φ)`` objects, one per phase on a
    #: uniform piecewise-LTI grid.
    groups: list
    #: For each segment, the index of its group.
    group_of: np.ndarray
    #: Clock period of the discretization.
    period: float
    n_segments: int
    n_states: int


def build_structure(disc):
    """Precompute the frequency-independent arrays of a discretization.

    Reads the discretization's runs, never its segments: a group is a
    shared ``(A, Φ)`` pair of objects, and consecutive runs of one group
    with no jump between them are one structure run.
    """
    n = disc.n_states
    n_seg = disc.n_segments
    durations = disc.durations
    t_end = disc.t_end
    t_start = disc.t_start
    has_jump = np.zeros(n_seg, dtype=bool)
    jumps: list[np.ndarray | None] = [None] * n_seg

    # Key on the objects the discretizer shares, not on the float
    # durations: ``t_end − t_start`` differs by ulps across the segments
    # of one uniform phase, which would split it into several groups.
    tol = SCHEDULE_TILE_RTOL * max(disc.period, 1.0)
    group_index = {}
    groups = []
    group_of = np.empty(n_seg, dtype=int)
    bounds = []
    for run in disc.runs:
        if run.a_matrix is None:
            raise ReproError(
                "segment is missing its A matrix; rebuild the "
                "discretization with a current version of the library")
        key = (id(run.a_matrix), id(run.phi))
        idx = group_index.get(key)
        if idx is None:
            idx = group_index[key] = len(groups)
            groups.append(_SegmentGroup(
                a_matrix=run.a_matrix, duration=float(durations[run.start]),
                indices=np.empty(0, dtype=int), phi=run.phi))
        members = durations[run.start:run.stop]
        off = np.flatnonzero(np.abs(members - groups[idx].duration) > tol)
        if off.size:
            k = run.start + int(off[0])
            raise ReproError(
                f"segment {k} shares its propagator with a segment of "
                f"duration {groups[idx].duration:.6g} but lasts "
                f"{durations[k]:.6g}; one propagator object must not "
                "serve segments of different lengths")
        # A group change or the previous run's jump starts a run.
        if (bounds and group_of[bounds[-1][0]] == idx
                and not has_jump[run.start - 1]):
            bounds[-1][1] = run.stop
        else:
            bounds.append([run.start, run.stop])
        group_of[run.start:run.stop] = idx
        if run.jump is not None:
            has_jump[run.stop - 1] = True
            jumps[run.stop - 1] = run.jump
    for idx, group in enumerate(groups):
        group.indices = np.nonzero(group_of == idx)[0]
    runs = [
        _Run(group=int(group_of[start]), start=start, stop=stop,
             lags=t_end[stop - 1] - t_end[start:stop],
             span=float(t_end[stop - 1] - t_start[start]))
        for start, stop in bounds]
    for index, run in enumerate(runs):
        groups[run.group].runs.append(index)
    powers = [_power_stack(group.phi, max(runs[i].stop - runs[i].start
                                          for i in group.runs))
              for group in groups]
    return _SweepStructure(
        durations=durations, t_end=t_end, has_jump=has_jump, jumps=jumps,
        powers=powers, runs=runs, groups=groups, group_of=group_of,
        period=disc.period, n_segments=n_seg, n_states=n)


def _power_stack(phi, length):
    """``stack[:, q, :] = (Φ^{length−1−q})ᵀ``, a real ``(n, length, n)``.

    ``Φ^{p+1} = Φ^p Φ`` is written in place, one product per power, and
    the stack is one reversing, transposing copy of the powers.
    """
    n = phi.shape[0]
    powers = np.empty((length, n, n))
    powers[0] = np.eye(n)
    for p in range(1, length):
        np.matmul(powers[p - 1], phi, out=powers[p])
    return np.ascontiguousarray(powers[::-1].transpose(2, 0, 1))


def run_operator(structure, run):
    """The real ``(n, n·L)`` map ``[Φ^{L−1} … Φ⁰]`` of a run of length ``L``.

    Applied to a run's state-major forcing ``x[j, p]`` (segment
    ``run.start + p``, flattened over ``(j, p)``) it gives
    ``Σ_p Φ^{L−1−p} x[:, p]``, the run-end state the forcing drives
    from zero.  A view of the group's power stack unless the run is
    shorter than the group's longest.
    """
    stack = structure.powers[run.group]
    length = run.stop - run.start
    tail = stack[:, stack.shape[1] - length:]
    return np.ascontiguousarray(tail).reshape(-1, stack.shape[2]).T


def contract_run(operator, forcing):
    """``operator`` applied to every state-major ``(n, L)`` slab of ``forcing``.

    ``forcing`` is complex ``(..., n, L)`` and C-contiguous in its last
    two axes; returns complex ``(..., n)``.  The real operator meets the
    real and imaginary parts as one real ``(n, n·L) × (n·L, 2)`` product
    per slab — never a complex copy of the stack — and each slab (one
    forcing row at one ω) is its own product, so a result does not
    depend on how many rows or frequencies are stacked.
    """
    pairs = forcing.view(float).reshape(
        forcing.shape[:-2] + (operator.shape[1], 2))
    return np.matmul(operator, pairs).view(complex)[..., 0]


def propagate_runs(structure, phases, particular, state):
    """Carry ``state`` from the period start through every run in turn.

    ``phases[i]`` is run ``i``'s ``e^{-jω span}`` (a scalar, or ``(F,
    1)`` against ``(..., F, n)`` states) and ``particular[i]`` the end
    state its forcing drives from zero (:func:`contract_run`).  A run
    maps its start state ``v`` to ``phase · Φ^L v + particular`` and then
    applies its jump.  Returns ``(starts, ends, final)``: each run's
    start state (after the previous jump) and end state (before its
    jump), and the state after the period's last jump — from a zero
    start, the one-period forcing ``g_ω``.
    """
    starts = []
    ends = []
    for run, phase, end in zip(structure.runs, phases, particular):
        starts.append(state)
        stack = structure.powers[run.group]
        state = state @ structure.groups[run.group].phi.T
        length = run.stop - run.start
        if length > 1:
            state = state @ stack[:, stack.shape[1] - length]
        state = phase * state + end
        ends.append(state)
        if structure.has_jump[run.stop - 1]:
            state = state @ structure.jumps[run.stop - 1].T
    return starts, ends, state


def psd_rows(integral, l_row, period):
    """Averaged double-sided PSD (V²/Hz) ``2·Re(l·∫q)/T`` of solved rows.

    The one read of every MFT solve: ``integral`` is ``(R, F, n)``, the
    period integrals of ``R`` forcing rows at ``F`` frequencies (a
    per-ω solve passes ``F = 1``), and the result is ``(R, F)``.  Each
    ``(F, n)`` slab meets ``l`` in its own product, so a row's values do
    not depend on how many rows are stacked.
    """
    return 2.0 * np.real(integral @ l_row) / period


def group_propagators(structure):
    """Each group's real propagator ``Φ`` in C order, indexed by group.

    The trace loop of :meth:`SweepContext.solve_shifted` steps segment
    ``k`` with ``phis[group_of[k]]``; a C-ordered operand keeps its
    products the same whatever order the discretizer returned ``Φ`` in
    (a copy only for such groups).
    """
    return [np.ascontiguousarray(group.phi) for group in structure.groups]


@dataclass
class _SourceSplit:
    """Per-source split of a discretization's noise Gramians.

    Lists run per run of the discretization (``disc.runs``), and runs of
    one clock phase share their entries: one ``(n_src, n, n)`` Gramian
    stack and one list of ``(n, 1)`` noise columns per phase, as the
    discretizer shares one total Gramian per phase.
    """

    #: Per run, the single-column noise matrices ``b_s``.
    columns: list
    #: Per run, the ``(n_src, n, n)`` per-source Gramian stack.
    gramians: list


def split_source_gramians(disc, n_src):
    """Exactly conservative per-source split of ``disc``'s Gramians.

    One Van Loan set per distinct ``(A, B, total Gramian)`` phase key:
    a single stacked :func:`~repro.linalg.vanloan.vanloan_gramian` call
    takes the ``(n_src, n, n)`` stack of single-column drives ``b_s
    b_sᵀ`` through one block exponential and one shared doubling
    composition.  The Gramian integral is linear in ``B B^T``, but the
    Van Loan ``expm`` rounds each single-column Gramian independently,
    so the raw per-source Gramians drift from the total by ~1e-12
    relative — which a near-marginal circuit (e.g. the ideal SC
    integrator) amplifies through its periodic covariance fixed point
    by the fixed point's condition number, enough to breach the 1e-9
    conservation contract.  The per-phase defect ``G_total − Σ_s G_s``
    is therefore redistributed over the sources, weighted by each
    Gramian's trace (a ~1e-12 relative nudge), so every quantity the
    covariance solve consumes decomposes to summation rounding only.
    """
    by_phase = {}
    columns = []
    gramians = []
    durations = disc.durations
    for run in disc.runs:
        key = (id(run.a_matrix), id(run.b_matrix), id(run.gramian))
        entry = by_phase.get(key)
        if entry is None:
            cols = [np.ascontiguousarray(run.b_matrix[:, [s]])
                    for s in range(n_src)]
            b_t = run.b_matrix.T
            drives = b_t[:, :, None] * b_t[:, None, :]
            grams = vanloan_gramian(run.a_matrix, drives,
                                    float(durations[run.start]))[1]
            defect = run.gramian - np.add.reduce(grams)
            traces = np.trace(grams, axis1=1, axis2=2)
            total_trace = float(traces.sum())
            if total_trace > 0.0:
                weights = traces / total_trace
            else:
                weights = np.full(n_src, 1.0 / n_src)
            entry = (cols, grams + weights[:, None, None] * defect)
            by_phase[key] = entry
        columns.append(entry[0])
        gramians.append(entry[1])
    return _SourceSplit(columns=columns, gramians=gramians)


def _with_totals(disc, stacks):
    """Each run's source stack with its total Gramian appended.

    Runs sharing a stack share the extended one.
    """
    extended = {}
    drives = []
    for run, stack in zip(disc.runs, stacks):
        drive = extended.get(id(stack))
        if drive is None:
            drive = extended[id(stack)] = np.concatenate(
                (stack, run.gramian[None]))
        drives.append(drive)
    return drives


class SweepContext:
    """Frequency-independent work of one discretization, computed once.

    Parameters
    ----------
    system:
        An LPTV system (``discretize()`` + ``output_matrix``).
    segments_per_phase:
        Discretization density forwarded to ``system.discretize``,
        validated here (:func:`~repro.lptv.system.segment_counts` raises
        :class:`~repro.errors.ScheduleError` on an invalid one).

    Everything else is lazy: each cached quantity is computed on first
    use and kept for the life of the context.
    """

    def __init__(self, system, segments_per_phase=64):
        if not hasattr(system, "discretize"):
            raise ReproError(
                "system must provide discretize(), got "
                f"{type(system).__name__}")
        _phase_counts(system, segments_per_phase)
        self.system = system
        self.segments_per_phase = segments_per_phase
        self._disc = None
        self._structure = None
        self._covariance = None
        self._monodromy = None
        self._preflight = None
        self._condition_bound = None
        self._forcing = {}
        self._n_sources = None
        self._source_split = None
        self._source_stack = None
        self._source_discs = {}
        self._source_forcing = {}
        self._forcing_stacks = {}
        self._retained_memo = None

    # -- cached frequency-independent quantities ----------------------------

    @property
    def disc(self):
        """The period discretization (propagators + Van Loan Gramians)."""
        if self._disc is None:
            self._disc = self.system.discretize(self.segments_per_phase)
        return self._disc

    @property
    def structure(self):
        """Stacked segment arrays, runs and power stacks (module doc)."""
        if self._structure is None:
            self._structure = build_structure(self.disc)
        return self._structure

    @property
    def covariance(self):
        """Periodic steady-state covariance ``K(t)``, solved once."""
        if self._covariance is None:
            self._covariance = periodic_covariance(self.disc)
        return self._covariance

    @property
    def monodromy(self):
        """One-period real monodromy matrix ``M_0`` (jumps included)."""
        if self._monodromy is None:
            self._monodromy = self.disc.monodromy()
        return self._monodromy

    @property
    def preflight(self):
        """Preflight report of :attr:`disc` at the default thresholds.

        Computed once, from the cached :attr:`monodromy`: the stability
        check, the conditioning check and the solver share one period
        product.  Never raises; the analyzer raises on its errors.
        """
        if self._preflight is None:
            self._preflight = run_preflight(self.disc,
                                            lambda: self.monodromy)
        return self._preflight

    @property
    def condition_bound(self):
        """One bound on ``cond(I − e^{−jωT}M₀)`` for every frequency.

        :func:`~repro.mft.spectral.fixed_point_condition_bound` of the
        cached :attr:`monodromy`, computed once; ``inf`` for a
        near-marginal or unstable monodromy.  The spectral kernel's
        condition gate reads it instead of a per-frequency SVD.
        """
        if self._condition_bound is None:
            from .spectral import fixed_point_condition_bound
            self._condition_bound = fixed_point_condition_bound(
                self.monodromy)
        return self._condition_bound

    def forcing_pairs(self, l_row):
        """Cross-spectral forcing ``K(t) l`` as per-segment endpoint pairs.

        Cached per output row ``l`` — the expensive parts (``K(t)`` and
        the pair assembly) are shared by every frequency of a sweep.
        """
        l_row = np.asarray(l_row, dtype=float)
        key = l_row.tobytes()
        cached = self._forcing.get(key)
        if cached is not None:
            return cached
        post, pre = self.covariance.forcing_samples(l_row)
        pairs = forcing_from_samples(self.disc, post, pre)
        self._forcing[key] = pairs
        return pairs

    def forcing_stack(self, l_row, sources=False):
        """The ``(R, S, 2, n)`` forcing rows of one periodic solve.

        Row 0 is the total's :meth:`forcing_pairs`; with ``sources`` the
        rows after it are each noise source's
        :meth:`source_forcing_pairs`, ``[total, source…]``, so one
        solve — per-ω (:meth:`solve_shifted`) or batched
        (:func:`~repro.mft.spectral.solve_spectral_batch`) — gives the
        total and every source's share from one factorization.  Without
        ``sources`` the stack is a view of the total's pairs; with them
        it is built once per output row and cached, and the cached pairs
        of that row become views of it, so the context holds one copy.
        """
        total = self.forcing_pairs(l_row)
        if not sources:
            return total[None]
        key = np.asarray(l_row, dtype=float).tobytes()
        stack = self._forcing_stacks.get(key)
        if stack is None:
            rows = range(self.n_sources)
            stack = np.stack([total] + [self.source_forcing_pairs(l_row, s)
                                        for s in rows])
            self._forcing[key] = stack[0]
            for s in rows:
                self._source_forcing[(s, key)] = stack[1 + s]
            self._forcing_stacks[key] = stack
        return stack

    # -- per-source decomposition -------------------------------------------

    @property
    def n_sources(self):
        """Number of noise-source columns shared by every run.

        Per-source attribution needs one aligned column basis across the
        whole period: ``B(t) B(t)^T = Σ_s b_s(t) b_s(t)^T`` only splits
        the total covariance when column ``s`` means the *same physical
        source* in every phase (the circuit builder guarantees this by
        sharing one noise-descriptor list across phases). A system whose
        phases disagree on the column count cannot be attributed.
        """
        if self._n_sources is None:
            counts = {run.b_matrix.shape[1] for run in self.disc.runs}
            if len(counts) != 1:
                raise ReproError(
                    "per-source attribution needs the same number of "
                    f"noise columns in every phase, got counts "
                    f"{sorted(counts)}")
            self._n_sources = int(counts.pop())
        return self._n_sources

    def _source_index(self, source):
        """``source`` as a valid noise-column index, else ``ReproError``."""
        n_src = self.n_sources
        index = int(source)
        if not 0 <= index < n_src:
            raise ReproError(
                f"noise source index {index} out of range for {n_src} "
                f"sources: valid indices are 0 to {n_src - 1}")
        return index

    def _split_sources(self):
        """The cached per-source Gramian split (:func:`split_source_gramians`)."""
        if self._source_split is None:
            self._source_split = split_source_gramians(self.disc,
                                                       self.n_sources)
        return self._source_split

    def source_disc(self, source):
        """Discretization whose Gramians keep only noise column ``source``.

        Same grid, propagators and jumps as :attr:`disc`; the ``B``
        column and the Gramians come from the exactly conservative
        per-source split (:func:`split_source_gramians`), one pair per
        run, so the segments of one clock phase share one Gramian
        object.  No engine reads it: the per-source covariances are
        solved from the split directly (:meth:`source_covariance`) and
        brute force drives its source rows from the split too.  It is
        the one-source-at-a-time reference route that
        ``tests/test_source_stack.py`` pins the stacked route against.
        All sources are built on the first call and cached.
        """
        source = self._source_index(source)
        cached = self._source_discs.get(source)
        if cached is not None:
            return cached
        split = self._split_sources()
        disc = self.disc
        n_src = self.n_sources
        views = {}
        per_source = [[] for _ in range(n_src)]
        for run, cols, stack in zip(disc.runs, split.columns,
                                    split.gramians):
            grams = views.get(id(stack))
            if grams is None:
                grams = views[id(stack)] = list(stack)
            for s in range(n_src):
                per_source[s].append(replace(run, b_matrix=cols[s],
                                             gramian=grams[s]))
        for s in range(n_src):
            self._source_discs[s] = disc.with_runs(per_source[s])
        return self._source_discs[source]

    def source_covariance(self, source):
        """Periodic covariance driven by noise column ``source`` alone.

        The first call solves every source at once: one pass over the
        period propagates the ``(n_src, n, n)`` stack of per-source
        Gramians (:func:`~repro.noise.covariance.steady_state_samples`),
        its discrete Lyapunov fixed point included (one stacked Smith
        doubling).  Each source's covariance is bit-identical to
        ``periodic_covariance(self.source_disc(source))``.  While
        :attr:`covariance` is not solved yet, the total Gramians ride in
        the same pass as one more drive, and their entry, bit-identical
        to ``periodic_covariance(self.disc)``, becomes :attr:`covariance`.
        """
        source = self._source_index(source)
        if self._source_stack is None:
            split = self._split_sources()
            disc = self.disc
            with_total = self._covariance is None
            drives = (_with_totals(disc, split.gramians) if with_total
                      else split.gramians)
            pre, post = steady_state_samples(disc, drives)
            if with_total:
                # One view per array, so a jump-free ``post is pre``
                # stays one array (the registry counts arrays by id).
                views = [(a[:-1], a[-1])
                         for a in ((pre,) if post is pre else (pre, post))]
                (pre, total_pre), (post, total_post) = views[0], views[-1]
                self._covariance = PeriodicCovariance(
                    grid=disc.grid, pre=total_pre, post=total_post,
                    period=disc.period)
            self._source_stack = PeriodicCovariance(
                grid=disc.grid, pre=pre, post=post, period=disc.period)
        stack = self._source_stack
        return PeriodicCovariance(grid=stack.grid, pre=stack.pre[source],
                                  post=stack.post[source],
                                  period=stack.period)

    def source_forcing_pairs(self, l_row, source):
        """Cross-spectral forcing ``K_s(t) l`` of one noise source.

        The first call per output row builds every source's pairs from
        the stacked per-source covariance samples.
        """
        source = self._source_index(source)
        l_row = np.asarray(l_row, dtype=float)
        row_key = l_row.tobytes()
        cached = self._source_forcing.get((source, row_key))
        if cached is not None:
            return cached
        self.source_covariance(source)
        post, pre = self._source_stack.forcing_samples(l_row)
        for s in range(self.n_sources):
            self._source_forcing[(s, row_key)] = forcing_from_samples(
                self.disc, post[s], pre[s])
        return self._source_forcing[(source, row_key)]

    def shifted_integrals(self, omega):
        """Per-group ``(Φ_ω, I1, I2, A_ω, ‖A_ω‖₁h)`` at one frequency.

        One entry per segment group (one per clock phase on a uniform
        grid; see :func:`build_structure`) — the only genuinely
        per-frequency matrix work of a solve, computed on every call:
        a context holds only frequency-independent arrays. The shifted
        norm decides the resolvent-vs-trapezoid period integration
        exactly as the reference solver does — it must include the
        ``−jω`` shift, else a quiescent phase (``A ≈ 0``) would take the
        trapezoid branch the reference avoids.
        """
        struct = self.structure
        eye = np.eye(struct.n_states)
        entries = []
        for group in struct.groups:
            a_shifted = group.a_matrix.astype(complex) - 1j * omega * eye
            phi_shifted = np.exp(-1j * omega * group.duration) * group.phi
            phi, i1, i2 = affine_step_integrals(
                a_shifted, group.duration, phi=phi_shifted)
            norm_h = float(np.linalg.norm(a_shifted, 1) * group.duration)
            entries.append((phi, i1, i2, a_shifted, norm_h))
        return entries

    # -- the fast periodic solve --------------------------------------------

    def solve_shifted(self, omega, segment_forcing, solver="direct",
                      ridge=FIXED_POINT_RIDGE, condition_limit=None):
        """Fast periodic steady state of ``dv/dt = (A−jω)v + f``.

        Drop-in equivalent of
        :func:`repro.lptv.periodic_solve.periodic_steady_state` (same
        arguments, same :class:`PeriodicSolution`, same condition-limit
        and solver semantics) that reuses every frequency-independent
        cached quantity; see the module docstring for the identities.

        ``segment_forcing`` is ``(S, 2, n)``, or — as for
        :func:`~repro.mft.spectral.solve_spectral_batch` — a stacked
        ``(R, S, 2, n)`` such as :meth:`forcing_stack`'s ``[total,
        source…]``, and the solution's arrays then gain a leading ``R``
        axis.  The rows share one set of step integrals, one condition
        (they pass or fail together), one LU with ``R`` right-hand
        sides, one pass over runs and one trace loop.  Each row keeps the
        operand shapes of an unstacked solve, so it is bit-identical to
        solving it alone; only ``"lstsq"``, whose multi-column solve may
        round a column differently, solves row 0 alone and the rest
        together.
        """
        disc = self.disc
        struct = self.structure
        n = disc.n_states
        n_seg = disc.n_segments
        forcing = np.asarray(segment_forcing)
        stacked = forcing.ndim == 4
        if not stacked:
            forcing = forcing[None]
        if forcing.shape[1:] != (n_seg, 2, n):
            raise ReproError(
                f"segment forcing must have shape ({n_seg}, 2, {n}) or "
                f"(R, {n_seg}, 2, {n}), got "
                f"{forcing.shape if stacked else forcing.shape[1:]}")
        n_rows = forcing.shape[0]
        omega = float(omega)
        entries = self.shifted_integrals(omega)

        # Per-segment forcing integrals, batched per group:
        #   g_k = I1 f0_k + I2 (f1_k − f0_k)/h.
        # Gathers are C-ordered ``np.take`` copies, so each row's slab
        # has the layout (and the products and sums their rounding) of
        # an unstacked solve.
        g_seg = np.empty((n_rows, n_seg, n), dtype=complex)
        ends = [np.take(forcing[:, :, end], group.indices, axis=1)
                for group in struct.groups for end in (0, 1)]
        for g, (group, (_phi, i1, i2, _a, _nh)) in enumerate(
                zip(struct.groups, entries)):
            f0, f1 = ends[2 * g], ends[2 * g + 1]
            slope = (f1 - f0) / group.duration
            g_seg[:, group.indices] = f0 @ i1.T + slope @ i2.T

        # One-period affine map: M_ω = e^{-jωT} M_0 (scalar identity) and
        # g_ω composed run by run, each run's forcing carried to its end
        # by one product against its power stack.  States are (R, 1, n),
        # so each row is the vector-matrix product of an unstacked solve.
        phase_total = np.exp(-1j * omega * disc.period)
        m_acc = phase_total * self.monodromy.astype(complex)
        particular = [
            contract_run(run_operator(struct, run), np.ascontiguousarray(
                (np.exp(-1j * omega * run.lags)[:, None]
                 * g_seg[:, run.start:run.stop]).swapaxes(1, 2)))[:, None]
            for run in struct.runs]
        spans = [np.exp(-1j * omega * run.span) for run in struct.runs]
        g_acc = propagate_runs(struct, spans, particular, np.zeros(
            (n_rows, 1, n), dtype=complex))[2][:, 0]

        condition = fixed_point_condition(m_acc)
        if solver == "direct":
            if condition_limit is not None and condition > condition_limit:
                logger.info(
                    "cached periodic solve rejected at omega=%.6g: "
                    "cond(I - M) = %.3g > %.3g", omega, condition,
                    condition_limit)
                raise SingularMatrixError(
                    f"fixed-point system (I - M) is ill-conditioned: "
                    f"cond = {condition:.3g} exceeds limit "
                    f"{condition_limit:.3g} at omega = {omega:.6g} rad/s")
            v0 = solve_linear_fixed_point(m_acc, g_acc.T).T
        elif solver == "lstsq":
            v0 = np.empty((n_rows, n), dtype=complex)
            v0[0] = solve_regularized_fixed_point(m_acc, g_acc[0],
                                                  ridge=ridge)
            if n_rows > 1:
                v0[1:] = solve_regularized_fixed_point(
                    m_acc, g_acc[1:].T, ridge=ridge).T
        else:
            raise ReproError(f"unknown periodic solver {solver!r}; "
                             "expected 'direct' or 'lstsq'")

        # One lean sequential pass for the trace (the recursion is
        # inherently ordered), every row a (n, 1) column of one stacked
        # product; everything derivable from the trace — derivatives,
        # period integral — is batched per group below.
        seg_phase = np.exp(-1j * omega * struct.durations)
        phis = group_propagators(struct)
        group_of = struct.group_of.tolist()
        has_jump = struct.has_jump
        jumps = struct.jumps
        # Time-major (S + 1, R, n, 1) buffers: one cheap view per step.
        pre = np.empty((n_seg + 1, n_rows, n, 1), dtype=complex)
        post = np.empty((n_seg + 1, n_rows, n, 1), dtype=complex)
        v = pre[0] = post[0] = v0[:, :, None]
        g_cols = np.ascontiguousarray(g_seg.swapaxes(0, 1))[..., None]
        for k in range(n_seg):
            v = seg_phase[k] * (phis[group_of[k]] @ v) + g_cols[k]
            pre[k + 1] = v
            if has_jump[k]:
                v = jumps[k] @ v
            post[k + 1] = v
        pre, post = (np.ascontiguousarray(a[..., 0].swapaxes(0, 1))
                     for a in (pre, post))

        dpre = np.empty((n_rows, n_seg + 1, n), dtype=complex)
        dpost = np.empty((n_rows, n_seg + 1, n), dtype=complex)
        integral = np.zeros((n_rows, n), dtype=complex)
        for g, (group, (_phi, _i1, _i2, a_shifted, norm_h)) in enumerate(
                zip(struct.groups, entries)):
            idx = group.indices
            h = group.duration
            f0, f1 = ends[2 * g], ends[2 * g + 1]
            start = np.take(post, idx, axis=1)
            end = np.take(pre, idx + 1, axis=1)
            # One-sided derivatives at the segment ends, batched.
            d_start = start @ a_shifted.T + f0
            d_end = end @ a_shifted.T + f1
            dpost[:, idx] = d_start
            dpre[:, idx + 1] = d_end
            # Period integral of v: per segment,
            #   A_ω ∫v dt = v(end) − v(start) − ∫f dt,
            # summed over the group *before* the single resolvent solve
            # (linearity); the derivative-corrected trapezoid covers the
            # near-singular regime, exactly as the reference path does.
            f_int = 0.5 * h * (f0 + f1)
            trapezoid = np.sum(
                0.5 * h * (start + end)
                + h * h / 12.0 * (d_start - d_end), axis=1)
            if norm_h > RESOLVENT_NORM_THRESHOLD:
                rhs = np.sum(end - start - f_int, axis=1)
                try:
                    integral = integral + checked_solve(
                        a_shifted, rhs.T,
                        context="segment integral resolvent").T
                except SingularMatrixError:
                    integral = integral + trapezoid
            else:
                integral = integral + trapezoid
        dpost[:, -1] = dpost[:, 0]
        if not stacked:
            pre, post, dpre, dpost, integral = (
                pre[0], post[0], dpre[0], dpost[0], integral[0])
        return PeriodicSolution(grid=disc.grid, pre=pre, post=post,
                                dpre=dpre, dpost=dpost, integral=integral,
                                condition=condition, solver=solver)

    # -- misc ---------------------------------------------------------------

    def _retained_bytes(self):
        """``(key, nbytes)`` of each cached array this context holds.

        Counts what grows with the segment count: the power stacks,
        ``K(t)`` and the per-source covariance stack, and the forcing
        pairs (views of a :meth:`forcing_stack` once it is built, which
        together are the stack).  The ``O(n²)`` matrices of each phase
        (discretization, groups) and the monodromy are not counted, and
        no array depends on a frequency.  ``key`` is the array's ``id``, so
        an array held twice (``post is pre`` on a jump-free circuit, or
        one context registered under two keys) counts once in
        :func:`sweep_context_for`.  Reads the cached quantities, never
        the segments, and copies each dict cache before reading it: a
        job-queue dispatcher thread may be filling it.

        The list is memoized on the fill state: each counted cache only
        ever goes from unset to set (the structure and the covariances)
        or grows (the forcing dicts; a new forcing stack, which swaps its
        row's pairs for views, grows the stack dict last), so the objects
        of the first and the sizes of the second change whenever the
        list would.  The state
        is read before the arrays, so a fill racing the read leaves a
        state that the next call sees as stale.
        """
        filled = (self._structure, self._covariance, self._source_stack)
        sizes = (len(self._forcing), len(self._source_forcing),
                 len(self._forcing_stacks))
        memo = self._retained_memo
        if (memo is not None and memo[1] == sizes
                and all(a is b for a, b in zip(memo[0], filled))):
            return memo[2]
        struct = self._structure
        arrays = [] if struct is None else list(struct.powers)
        for cov in (self._covariance, self._source_stack):
            if cov is not None:
                arrays += (cov.pre, cov.post)
        arrays += tuple(self._forcing.values())
        arrays += tuple(self._source_forcing.values())
        counted = tuple((id(array), array.nbytes) for array in arrays)
        self._retained_memo = (filled, sizes, counted)
        return counted

    def warm_up(self, l_row=None, sources=False):
        """Force every frequency-independent quantity to exist.

        Called by the executor before the first chunk, so this work is
        timed under ``mft.warmup`` rather than inside a chunk.
        Idempotent: a repeated warm-up finds everything cached.  With
        ``sources=True`` the per-source covariances (and, given
        ``l_row``, the :meth:`forcing_stack`) of an attribution run are
        included,
        solved before :attr:`covariance`: the first source solves them
        all and the total in one stacked pass, so the rest are cache
        hits.
        """
        if sources and self.n_sources:
            # First, so the stacked pass solves the total covariance too.
            self.source_covariance(0)
        _ = self.structure, self.covariance, self.monodromy
        if l_row is not None:
            self.forcing_stack(l_row, sources=sources)
        return self

    def __repr__(self):
        built = sum(x is not None for x in
                    (self._disc, self._covariance, self._monodromy))
        return (f"SweepContext(segments_per_phase="
                f"{self.segments_per_phase!r}, built={built}/3)")


# -- registry ---------------------------------------------------------------

#: Bounded LRU module registry of contexts, keyed by system fingerprint,
#: filled only by :func:`sweep_context_for`.  Guarded by
#: :data:`_REGISTRY_LOCK`: callers on several threads may share it.
_REGISTRY = OrderedDict()
#: Entry-count ceiling next to :data:`_REGISTRY_CAP_BYTES`: contexts that
#: were never filled hold no arrays, and could otherwise pile up.
_REGISTRY_LIMIT = 32
_REGISTRY_LOCK = threading.Lock()
#: Registry hit/miss/evict counters.
registry_stats = CacheStats()


def _phase_counts(system, segments_per_phase):
    """``segments_per_phase`` validated as one count per phase of ``system``.

    A system without phases (:class:`~repro.lptv.system.SampledLPTVSystem`)
    counts as one phase.
    """
    phases = getattr(system, "phases", None)
    return segment_counts(segments_per_phase,
                          1 if phases is None else len(phases))


def discretization_fingerprint(system, segments_per_phase):
    """Content hash of everything that determines a discretization.

    Hashes the phase durations, state/noise/jump matrices, the output
    matrix, and the requested density — so two structurally identical
    systems share a context while *any* mutation (a different duty
    cycle, segment count, or component value) changes the key. Systems
    defined by callables (:class:`~repro.lptv.system.SampledLPTVSystem`)
    cannot be content-hashed and fall back to object identity.

    The density is hashed as its validated per-phase counts
    (:func:`~repro.lptv.system.segment_counts`, which raises
    :class:`~repro.errors.ScheduleError` on an invalid one): ``64``,
    ``np.int64(64)`` and ``[64, 64]`` are one key, written as ``64``
    whenever every phase has the same count.
    """
    phases = getattr(system, "phases", None)
    counts = _phase_counts(system, segments_per_phase)
    density = counts[0] if len(set(counts)) == 1 else counts
    digest = hashlib.sha256()
    digest.update(type(system).__name__.encode())
    digest.update(repr(density).encode())
    if phases is None:
        digest.update(str(id(system)).encode())
        period = getattr(system, "period", None)
        if period is not None:
            digest.update(repr(float(period)).encode())
        return digest.hexdigest()
    for phase in phases:
        digest.update(phase.name.encode())
        digest.update(np.float64(phase.duration).tobytes())
        digest.update(np.ascontiguousarray(phase.a_matrix).tobytes())
        digest.update(np.ascontiguousarray(phase.b_matrix).tobytes())
        if phase.end_jump is not None:
            digest.update(np.ascontiguousarray(phase.end_jump).tobytes())
        digest.update(b"|")
    output = getattr(system, "output_matrix", None)
    if output is not None:
        digest.update(np.ascontiguousarray(output).tobytes())
    return digest.hexdigest()


def sweep_context_for(system, segments_per_phase=64, family=None,
                      build=None):
    """Context for ``(system, density)`` from the module registry.

    The registry is opt-in: analyses own their contexts, and no library
    path calls this function, so it holds only what a caller registers
    here to share contexts across analyses.  Returns the cached context
    when the fingerprint matches a previous call (counted as a registry
    hit) and builds + registers a fresh one otherwise.  The registry is
    an LRU bounded by the bytes its contexts hold: a hit refreshes the
    entry's recency, and a miss first evicts least-recently-used
    entries until the arrays the remaining ones hold fit
    :data:`_REGISTRY_CAP_BYTES`, and until fewer than
    :data:`_REGISTRY_LIMIT` remain, then inserts the new context.  Each
    array counts once however many entries hold it.  See
    :meth:`SweepContext._retained_bytes` for what counts.  Contexts fill
    lazily after they are registered, so an entry larger than the cap
    stays until the next miss.  Every access holds
    :data:`_REGISTRY_LOCK`, so concurrent callers (a job-queue
    dispatcher thread and its callers) always agree on one context per
    fingerprint.  An evicted context stays valid for whoever still holds
    it; the registry only stops handing it out.

    ``family`` salts the key with a parameter-family hash
    (:meth:`repro.circuits.corners.ParameterGrid.family_hash`): a
    context registered for a corner sweep's dynamics root — which
    :func:`~repro.mft.corners.corner_psd_sweep` then looks up instead of
    building its own — can never be served to, or alias, a plain sweep
    of a system that fingerprints identically.  ``build`` supplies the
    context constructor on a miss (e.g. a subclass that traces its
    layers); the default builds a fresh :class:`SweepContext`.
    """
    key = _registry_key(system, segments_per_phase, family)
    with _REGISTRY_LOCK:
        context = _lookup(key)
        if context is not None:
            return context
        registry_stats.miss("context")
        if build is not None:
            context = build()
        else:
            context = SweepContext(system, segments_per_phase)
        keep = min(_entries_within_cap(), _REGISTRY_LIMIT - 1)
        while len(_REGISTRY) > keep:
            _REGISTRY.popitem(last=False)
            registry_stats.evict("context")
        _REGISTRY[key] = context
        return context


def _registry_key(system, segments_per_phase, family):
    """The fingerprint of ``(system, density)``, salted with ``family``."""
    key = discretization_fingerprint(system, segments_per_phase)
    return key if family is None else f"{key}:family={family}"


def _lookup(key):
    """The context registered under ``key`` (a hit, refreshed), else None.

    Called with :data:`_REGISTRY_LOCK` held.
    """
    context = _REGISTRY.get(key)
    if context is not None:
        _REGISTRY.move_to_end(key)
        registry_stats.hit("context")
    return context


def _registered_context(system, segments_per_phase, family=None):
    """The registry's context for ``(system, density, family)``, or None.

    A lookup that never inserts: what a corner sweep calls for each
    dynamics root before building a private context.  A hit counts in
    :data:`registry_stats` and refreshes the entry; nothing counts a
    miss, since nothing is registered.  While the registry is empty the
    fingerprint is not computed.
    """
    if not _REGISTRY:
        return None
    key = _registry_key(system, segments_per_phase, family)
    with _REGISTRY_LOCK:
        return _lookup(key)


def _entries_within_cap():
    """How many most-recent entries fit :data:`_REGISTRY_CAP_BYTES`.

    The bytes the newest ``m`` entries hold together grow with ``m``, so
    one pass from the newest entry finds the largest ``m`` that fits.
    Called with :data:`_REGISTRY_LOCK` held.
    """
    fits = 0
    for total in _cumulative_bytes(reversed(_REGISTRY.values())):
        if total > _REGISTRY_CAP_BYTES:
            break
        fits += 1
    return fits


def _cumulative_bytes(contexts):
    """Bytes the first 1, 2, … of ``contexts`` hold together, in turn.

    Each array counts once (:meth:`SweepContext._retained_bytes`), so a
    context registered under several keys counts once.
    """
    seen = set()
    total = 0
    for context in contexts:
        for key, nbytes in context._retained_bytes():
            if key not in seen:
                seen.add(key)
                total += nbytes
        yield total


def clear_sweep_contexts():
    """Empty the registry, dropping its references to every context.

    Only contexts registered through :func:`sweep_context_for` live
    there, so this matters to callers that register them (tests, the
    bench's traced mode) and want a cold start or their memory back
    before the byte bound would evict.  Contexts still held elsewhere
    (an analyzer's) stay valid.  Registry counters are not reset.
    """
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
