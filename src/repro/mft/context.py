"""Shared per-discretization cache: compute frequency-independent work once.

A PSD sweep evaluates the same circuit at 100+ frequencies, yet everything
except the final complex fixed point is *frequency independent*: the
per-segment propagators and Van Loan noise Gramians, the periodic
covariance ``K(t)``, the cross-spectral forcing ``K(t) l``, the monodromy
matrix, and — the insight this module adds — the *suffix products* of the
per-segment maps that assemble the one-period forcing vector. A
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
* the forcing accumulation ``g_ω = Σ_k R_k g_k(ω)`` uses the cached real
  suffix products ``R_k`` with per-segment scalar phases, so it becomes
  one batched matrix-vector product instead of a Python loop.

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

Contexts are either built directly (``SweepContext(system, 64)``) or
drawn from the module registry (:func:`sweep_context_for`), which
fingerprints the system content — phase durations, state/noise/jump
matrices, segment counts — so that *mutating* a system or requesting a
different density misses the cache instead of returning stale numerics.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

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

#: Frequencies whose shifted step integrals are kept per context; a sweep
#: revisits frequencies only through the fallback chain, so this stays
#: small.
_OMEGA_CACHE_LIMIT = 512


@dataclass
class CacheStats:
    """Hit/miss/evict counters for every cached quantity of a context.

    Counters are monotonic for the lifetime of their context — nothing
    (``warm_up`` included) ever resets them, so deltas between two
    :meth:`snapshot` calls are meaningful. Increments are lock-guarded:
    a :class:`~repro.service.JobQueue` dispatcher thread and its caller
    can share one registry context, and a lost update would break the
    serial-vs-parallel metric-count equality the observability tests
    assert. The lock is dropped on pickle (process workers get a
    private copy) and rebuilt.
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
        """JSON-friendly counters (a sweep's ``info["cache_stats"]``)."""
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


@dataclass
class _SweepStructure:
    """Frequency-independent arrays derived from one discretization."""

    #: Per-segment durations, end times, and real propagators, stacked.
    durations: np.ndarray
    t_end: np.ndarray
    phi_stack: np.ndarray
    #: Per-segment jump (identity where absent) and a has-jump mask.
    has_jump: np.ndarray
    jumps: list
    #: Real suffix products ``R_k = E_{S-1}···E_{k+1} J_k`` with
    #: ``E_j = J_j Φ_j``: the map from segment k's forcing contribution
    #: to the end of the period, jumps folded in.
    suffix: np.ndarray
    #: Segment groups by shared ``(A, Φ)`` objects, one per phase on a
    #: uniform piecewise-LTI grid.
    groups: list
    #: For each segment, the index of its group.
    group_of: np.ndarray
    #: Clock period of the discretization.
    period: float


def build_structure(disc):
    """Precompute the frequency-independent arrays of a discretization."""
    segments = disc.segments
    n = disc.n_states
    n_seg = len(segments)
    durations = np.asarray([seg.duration for seg in segments])
    t_end = np.asarray([seg.t_end for seg in segments])
    phi_stack = np.stack([seg.phi for seg in segments])
    has_jump = np.asarray([seg.jump is not None for seg in segments])
    jumps = [seg.jump for seg in segments]

    suffix = np.empty((n_seg, n, n))
    acc = np.eye(n)
    for k in range(n_seg - 1, -1, -1):
        jump = jumps[k]
        suffix[k] = acc @ jump if jump is not None else acc
        acc = suffix[k] @ phi_stack[k]

    # Key on the objects the discretizer shares, not on the float
    # durations: ``t_end − t_start`` differs by ulps across the segments
    # of one uniform phase, which would split it into several groups.
    tol = SCHEDULE_TILE_RTOL * max(disc.period, 1.0)
    group_index = {}
    groups = []
    group_of = np.empty(n_seg, dtype=int)
    # scn: ignore[SCN008] - one-shot structure build at context warm-up,
    # bounded by the grid size; sweeps budget-gate per frequency chunk
    for k, seg in enumerate(segments):
        if seg.a_matrix is None:
            raise ReproError(
                "segment is missing its A matrix; rebuild the "
                "discretization with a current version of the library")
        key = (id(seg.a_matrix), id(seg.phi))
        idx = group_index.get(key)
        if idx is None:
            idx = len(groups)
            group_index[key] = idx
            groups.append(_SegmentGroup(
                a_matrix=seg.a_matrix, duration=seg.duration,
                indices=np.empty(0, dtype=int), phi=seg.phi))
        elif abs(durations[k] - groups[idx].duration) > tol:
            raise ReproError(
                f"segment {k} shares its propagator with a segment of "
                f"duration {groups[idx].duration:.6g} but lasts "
                f"{durations[k]:.6g}; one propagator object must not "
                "serve segments of different lengths")
        group_of[k] = idx
    for idx, group in enumerate(groups):
        group.indices = np.nonzero(group_of == idx)[0]
    return _SweepStructure(
        durations=durations, t_end=t_end, phi_stack=phi_stack,
        has_jump=has_jump, jumps=jumps, suffix=suffix, groups=groups,
        group_of=group_of, period=disc.period)


@dataclass
class _SourceSplit:
    """Per-source split of a discretization's noise Gramians.

    Lists run per segment, but segments of one clock phase share their
    entries: one ``(n_src, n, n)`` Gramian stack and one list of
    ``(n, 1)`` noise columns per phase, as the discretizer shares one
    total Gramian per phase.
    """

    #: The discretization whose propagators and jumps the split rides on.
    disc: object
    #: Per segment, the single-column noise matrices ``b_s``.
    columns: list
    #: Per segment, the ``(n_src, n, n)`` per-source Gramian stack.
    gramians: list


def split_source_gramians(disc, n_src):
    """Exactly conservative per-source split of ``disc``'s Gramians.

    One Van Loan Gramian per source and per distinct ``(A, B, total
    Gramian)`` phase key, from the single column ``b_s b_s^T``.  The
    Gramian integral is linear in ``B B^T``, but the Van Loan ``expm``
    rounds each single-column Gramian independently, so the raw
    per-source Gramians drift from the total by ~1e-12 relative — which
    a near-marginal circuit (e.g. the ideal SC integrator) amplifies
    through its periodic covariance fixed point by the fixed point's
    condition number, enough to breach the 1e-9 conservation contract.
    The per-phase defect ``G_total − Σ_s G_s`` is therefore
    redistributed over the sources, weighted by each Gramian's trace (a
    ~1e-12 relative nudge), so every quantity the covariance solve
    consumes decomposes to summation rounding only.
    """
    by_phase = {}
    columns = []
    gramians = []
    for seg in disc.segments:  # scn: ignore[SCN008] - frequency-independent one-time precompute, not a sweep loop
        key = (id(seg.a_matrix), id(seg.b_matrix), id(seg.gramian))
        entry = by_phase.get(key)
        if entry is None:
            cols = [np.ascontiguousarray(seg.b_matrix[:, [s]])
                    for s in range(n_src)]
            grams = [vanloan_gramian(seg.a_matrix, col @ col.T,
                                     seg.duration)[1]
                     for col in cols]
            defect = seg.gramian - np.add.reduce(grams)
            traces = np.array([np.trace(g).real for g in grams])
            total_trace = float(traces.sum())
            if total_trace > 0.0:
                weights = traces / total_trace
            else:
                weights = np.full(n_src, 1.0 / n_src)
            stack = np.stack([gram + weight * defect
                              for gram, weight in zip(grams, weights)])
            entry = (cols, stack)
            by_phase[key] = entry
        columns.append(entry[0])
        gramians.append(entry[1])
    return _SourceSplit(disc=disc, columns=columns, gramians=gramians)


class SweepContext:
    """Frequency-independent work of one discretization, computed once.

    Parameters
    ----------
    system:
        An LPTV system (``discretize()`` + ``output_matrix``).
    segments_per_phase:
        Discretization density forwarded to ``system.discretize``.

    Everything is lazy: building a context is free, each cached quantity
    is computed on first use and recorded in :attr:`stats`. Contexts are
    picklable (they carry only arrays), so a process-backend sweep ships
    the precomputed work to its workers instead of recomputing it there.
    """

    def __init__(self, system, segments_per_phase=64):
        if not hasattr(system, "discretize"):
            raise ReproError(
                "system must provide discretize(), got "
                f"{type(system).__name__}")
        self.system = system
        self.segments_per_phase = segments_per_phase
        self.stats = CacheStats()
        self._disc = None
        self._structure = None
        self._covariance = None
        self._monodromy = None
        self._spectral = None
        self._forcing = {}
        self._omega_cache = OrderedDict()
        self._omega_cache_limit = _OMEGA_CACHE_LIMIT
        self._n_sources = None
        self._source_split = None
        self._source_stack = None
        self._source_discs = {}
        self._source_forcing = {}

    # -- cached frequency-independent quantities ----------------------------

    @property
    def disc(self):
        """The period discretization (propagators + Van Loan Gramians)."""
        if self._disc is None:
            self.stats.miss("disc")
            self._disc = self.system.discretize(self.segments_per_phase)
        else:
            self.stats.hit("disc")
        return self._disc

    @property
    def structure(self):
        """Stacked segment arrays and suffix products (see module doc)."""
        if self._structure is None:
            self.stats.miss("structure")
            self._structure = build_structure(self.disc)
        else:
            self.stats.hit("structure")
        return self._structure

    @property
    def covariance(self):
        """Periodic steady-state covariance ``K(t)``, solved once."""
        if self._covariance is None:
            self.stats.miss("covariance")
            self._covariance = periodic_covariance(self.disc)
        else:
            self.stats.hit("covariance")
        return self._covariance

    @property
    def monodromy(self):
        """One-period real monodromy matrix ``M_0`` (jumps included)."""
        if self._monodromy is None:
            self.stats.miss("monodromy")
            self._monodromy = self.disc.monodromy()
        else:
            self.stats.hit("monodromy")
        return self._monodromy

    @property
    def spectral_bases(self):
        """Per-group eigenbases of the frequency-batched spectral kernel.

        One :class:`~repro.mft.spectral.GroupBasis` per segment group,
        computed once (frequency-independent) and gated on
        :data:`~repro.tolerances.SPECTRAL_EIGENBASIS_COND_LIMIT`; a
        defective group is marked and later served by the per-frequency
        reference path instead.
        """
        if self._spectral is None:
            self.stats.miss("spectral-basis")
            from .spectral import build_group_bases
            self._spectral = build_group_bases(self.structure.groups)
        else:
            self.stats.hit("spectral-basis")
        return self._spectral

    def forcing_pairs(self, l_row):
        """Cross-spectral forcing ``K(t) l`` as per-segment endpoint pairs.

        Cached per output row ``l`` — the expensive parts (``K(t)`` and
        the pair assembly) are shared by every frequency of a sweep.
        """
        l_row = np.asarray(l_row, dtype=float)
        key = l_row.tobytes()
        cached = self._forcing.get(key)
        if cached is not None:
            self.stats.hit("forcing")
            return cached
        self.stats.miss("forcing")
        post, pre = self.covariance.forcing_samples(l_row)
        pairs = forcing_from_samples(self.disc, post, pre)
        self._forcing[key] = pairs
        return pairs

    # -- per-source decomposition -------------------------------------------

    @property
    def n_sources(self):
        """Number of noise-source columns shared by every segment.

        Per-source attribution needs one aligned column basis across the
        whole period: ``B(t) B(t)^T = Σ_s b_s(t) b_s(t)^T`` only splits
        the total covariance when column ``s`` means the *same physical
        source* in every phase (the circuit builder guarantees this by
        sharing one noise-descriptor list across phases). A system whose
        phases disagree on the column count cannot be attributed.
        """
        if self._n_sources is None:
            counts = {seg.b_matrix.shape[1] for seg in self.disc.segments}
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
        per-source split (:func:`split_source_gramians`), so the
        segments of one clock phase share one Gramian object.  Only the
        brute-force attribution replay needs whole per-source
        discretizations — the per-source covariances are solved from
        the split directly (:meth:`source_covariance`).  All sources are
        built on the first call and cached.
        """
        source = self._source_index(source)
        cached = self._source_discs.get(source)
        if cached is not None:
            self.stats.hit("source-disc")
            return cached
        self.stats.miss("source-disc")
        split = self._split_sources()
        n_src = self.n_sources
        views = {}
        per_source = [[] for _ in range(n_src)]
        # scn: ignore[SCN008] - frequency-independent one-time
        # precompute, not a sweep loop
        for seg, cols, stack in zip(split.disc.segments, split.columns,
                                    split.gramians):
            grams = views.get(id(stack))
            if grams is None:
                grams = views[id(stack)] = list(stack)
            for s in range(n_src):
                per_source[s].append(replace(seg, b_matrix=cols[s],
                                             gramian=grams[s]))
        for s in range(n_src):
            self._source_discs[s] = replace(split.disc,
                                            segments=per_source[s])
        return self._source_discs[source]

    def source_covariance(self, source):
        """Periodic covariance driven by noise column ``source`` alone.

        The first call solves every source at once: one pass over the
        period propagates the ``(n_src, n, n)`` stack of per-source
        Gramians (:func:`~repro.noise.covariance.steady_state_samples`),
        with one discrete Lyapunov solve per source.  Each source's
        covariance is bit-identical to
        ``periodic_covariance(self.source_disc(source))``.
        """
        source = self._source_index(source)
        if self._source_stack is None:
            self.stats.miss("source-covariance")
            split = self._split_sources()
            disc = split.disc
            pre, post = steady_state_samples(disc, split.gramians)
            self._source_stack = PeriodicCovariance(
                grid=disc.grid, pre=pre, post=post, period=disc.period)
        else:
            self.stats.hit("source-covariance")
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
            self.stats.hit("source-forcing")
            return cached
        self.stats.miss("source-forcing")
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
        per-frequency matrix work of a solve. Cached per ω so the
        fallback chain and the instantaneous/contribution observables
        revisit a frequency for free. The shifted norm decides the
        resolvent-vs-trapezoid period integration exactly as the
        reference solver does — it must include the ``−jω`` shift, else
        a quiescent phase (``A ≈ 0``) would take the trapezoid branch
        the reference avoids.
        """
        key = float(omega)
        cached = self._omega_cache.get(key)
        if cached is not None:
            # True LRU: a hit refreshes recency, so a hot frequency
            # revisited by an adaptive sweep is the *last* to go.
            self._omega_cache.move_to_end(key)
            self.stats.hit("shifted-integrals")
            return cached
        self.stats.miss("shifted-integrals")
        n = self.disc.n_states
        eye = np.eye(n)
        entries = []
        for group in self.structure.groups:
            a_shifted = group.a_matrix.astype(complex) - 1j * omega * eye
            phi_shifted = np.exp(-1j * omega * group.duration) * group.phi
            phi, i1, i2 = affine_step_integrals(
                a_shifted, group.duration, phi=phi_shifted)
            norm_h = float(np.linalg.norm(a_shifted, 1) * group.duration)
            entries.append((phi, i1, i2, a_shifted, norm_h))
        while len(self._omega_cache) >= self._omega_cache_limit:
            self._omega_cache.popitem(last=False)
            self.stats.evict("shifted-integrals")
        self._omega_cache[key] = entries
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
        """
        disc = self.disc
        struct = self.structure
        n = disc.n_states
        forcing = np.asarray(segment_forcing)
        n_seg = len(disc.segments)
        if forcing.shape != (n_seg, 2, n):
            raise ReproError(
                f"segment forcing must have shape "
                f"({n_seg}, 2, {n}), got {forcing.shape}")
        omega = float(omega)
        entries = self.shifted_integrals(omega)

        # Per-segment forcing integrals, batched per group:
        #   g_k = I1 f0_k + I2 (f1_k − f0_k)/h.
        g_seg = np.empty((n_seg, n), dtype=complex)
        for group, (_phi, i1, i2, _a, _nh) in zip(struct.groups, entries):
            idx = group.indices
            f0 = forcing[idx, 0]
            slope = (forcing[idx, 1] - f0) / group.duration
            g_seg[idx] = f0 @ i1.T + slope @ i2.T

        # One-period affine map: M_ω = e^{-jωT} M_0 (scalar identity) and
        # g_ω = Σ_k e^{-jω(T − t_end_k)} R_k g_k (batched suffix products).
        phase_total = np.exp(-1j * omega * disc.period)
        m_acc = phase_total * self.monodromy.astype(complex)
        tail_phase = np.exp(-1j * omega * (disc.period - struct.t_end))
        g_acc = np.einsum("kij,kj->i", struct.suffix,
                          tail_phase[:, None] * g_seg)

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
            v0 = solve_linear_fixed_point(m_acc, g_acc)
        elif solver == "lstsq":
            v0 = solve_regularized_fixed_point(m_acc, g_acc, ridge=ridge)
        else:
            raise ReproError(f"unknown periodic solver {solver!r}; "
                             "expected 'direct' or 'lstsq'")

        # One lean sequential pass for the trace (the recursion is
        # inherently ordered); everything derivable from the trace —
        # derivatives, period integral — is batched per group below.
        seg_phase = np.exp(-1j * omega * struct.durations)
        phi_stack = struct.phi_stack
        has_jump = struct.has_jump
        jumps = struct.jumps
        pre = np.empty((n_seg + 1, n), dtype=complex)
        post = np.empty((n_seg + 1, n), dtype=complex)
        pre[0] = v0
        post[0] = v0
        v = v0
        for k in range(n_seg):
            v = seg_phase[k] * (phi_stack[k] @ v) + g_seg[k]
            pre[k + 1] = v
            if has_jump[k]:
                v = jumps[k] @ v
            post[k + 1] = v

        dpre = np.empty((n_seg + 1, n), dtype=complex)
        dpost = np.empty((n_seg + 1, n), dtype=complex)
        integral = np.zeros(n, dtype=complex)
        for group, (_phi, _i1, _i2, a_shifted, norm_h) in zip(
                struct.groups, entries):
            idx = group.indices
            h = group.duration
            # One-sided derivatives at the segment ends, batched.
            dpost[idx] = post[idx] @ a_shifted.T + forcing[idx, 0]
            dpre[idx + 1] = pre[idx + 1] @ a_shifted.T + forcing[idx, 1]
            # Period integral of v: per segment,
            #   A_ω ∫v dt = v(end) − v(start) − ∫f dt,
            # summed over the group *before* the single resolvent solve
            # (linearity); the derivative-corrected trapezoid covers the
            # near-singular regime, exactly as the reference path does.
            f_int = 0.5 * h * (forcing[idx, 0] + forcing[idx, 1])
            trapezoid = np.sum(
                0.5 * h * (post[idx] + pre[idx + 1])
                + h * h / 12.0 * (dpost[idx] - dpre[idx + 1]), axis=0)
            if norm_h > RESOLVENT_NORM_THRESHOLD:
                rhs = np.sum(pre[idx + 1] - post[idx] - f_int, axis=0)
                try:
                    integral = integral + checked_solve(
                        a_shifted, rhs,
                        context="segment integral resolvent")
                except SingularMatrixError:
                    integral = integral + trapezoid
            else:
                integral = integral + trapezoid
        dpost[-1] = dpost[0]
        return PeriodicSolution(grid=disc.grid, pre=pre, post=post,
                                dpre=dpre, dpost=dpost, integral=integral,
                                condition=condition, solver=solver)

    # -- parameter-family support (DESIGN.md §12) ---------------------------

    @property
    def dynamics_key(self):
        """Identity of this context's dynamics (shared segment structure).

        Two contexts with equal ``dynamics_key`` share the *same*
        ``A``-matrix structure object — propagators, suffix products,
        spectral eigenbases, shifted-integral cache — so a corner sweep
        can stack their forcing rows into one kernel solve.  Derived
        intensity-scaled contexts share their parent's structure by
        reference and therefore its key.
        """
        return id(self.structure)

    def derive_intensity_scaled(self, scales, system=None):
        """A context whose noise PSDs are scaled, sharing all dynamics work.

        ``scales`` is a scalar PSD multiplier or a per-source array (one
        entry per noise column).  The derived context shares this
        context's structure, monodromy, spectral eigenbases, and
        shifted-integral cache *by reference* — the MFT pipeline is
        linear in ``B Bᵀ``, so only the Gramians, ``B`` columns, and
        forcing pairs are restacked (a scalar multiply for a uniform
        scale, a per-source Gramian sum otherwise).  This is what makes
        an intensity-only corner nearly free next to its dynamics root.

        ``system`` optionally carries the matching rescaled system (for
        fallback paths that rediscretize); defaults to the parent's.
        """
        return _DerivedIntensityContext(self, scales, system=system)

    # -- misc ---------------------------------------------------------------

    def warm_up(self, l_row=None, sources=False):
        """Force every frequency-independent quantity to exist.

        Called before dispatch so process workers inherit the cached
        work through the fork/pickle instead of recomputing it.
        Idempotent with respect to :attr:`stats`: repeated warm-ups
        only *add* hit counts — the counters are never reset, so
        accumulated hit/miss history survives any number of warm-ups. With
        ``sources=True`` the per-source covariances (and, given
        ``l_row``, forcing pairs) of an attribution run are included:
        the first source solves them all in one stacked pass, so the
        rest are cache hits.
        """
        _ = self.structure, self.covariance, self.monodromy
        if l_row is not None:
            self.forcing_pairs(l_row)
        if sources:
            for s in range(self.n_sources):
                if l_row is not None:
                    self.source_forcing_pairs(l_row, s)
                else:
                    self.source_covariance(s)
        return self

    def __repr__(self):
        built = sum(x is not None for x in
                    (self._disc, self._covariance, self._monodromy))
        return (f"SweepContext(segments_per_phase="
                f"{self.segments_per_phase!r}, built={built}/3, "
                f"{self.stats})")


class _DerivedIntensityContext(SweepContext):
    """Intensity-scaled view of a parent context.

    Built by :meth:`SweepContext.derive_intensity_scaled`; see there for
    the sharing contract.  The uniform-scalar fast path exploits strict
    linearity: ``forcing = α² · parent_forcing`` exactly, so a uniform
    corner costs one array multiply per cached quantity.  Per-source
    scales recombine the parent's exactly-conservative per-source
    Gramian split (``Σ_s G_s = G_total``), so equal per-source scales
    reproduce the uniform path to summation rounding.

    Nothing here builds a discretization unless :attr:`disc` itself is
    read: the source count, the forcing pairs and the per-source split
    all come from the parent.  A derived :attr:`disc`, when a fallback
    path asks for one, holds one rescaled Gramian per clock phase,
    shared by that phase's segments as the discretizer shares them.
    """

    def __init__(self, parent, scales, system=None):
        scale_arr = np.atleast_1d(np.asarray(scales, dtype=float))
        if scale_arr.ndim != 1 or scale_arr.size == 0:
            raise ReproError(
                f"intensity scales must be a scalar or 1-D array, got "
                f"shape {np.asarray(scales).shape}")
        if not np.all(np.isfinite(scale_arr)) or not np.all(scale_arr > 0):
            raise ReproError(
                "intensity scales must be finite and positive, got "
                f"{scale_arr}")
        self.parent = parent
        self.system = system if system is not None else parent.system
        self.segments_per_phase = parent.segments_per_phase
        self.stats = CacheStats()
        self._scales = scale_arr
        self._uniform = float(scale_arr[0]) if scale_arr.size == 1 else None
        # Dynamics work shared by reference (the point of the exercise):
        # same A matrices → same structure, monodromy, eigenbases, and
        # shifted step integrals.  Forcing the parent's lazy properties
        # here keeps ``dynamics_key`` stable across derivations.
        self._structure = parent.structure
        self._monodromy = parent.monodromy
        self._omega_cache = parent._omega_cache
        self._omega_cache_limit = parent._omega_cache_limit
        self._spectral = None  # delegated to the parent via the property
        # Intensity-dependent quantities are rebuilt lazily (cheaply).
        self._disc = None
        self._covariance = None
        self._forcing = {}
        self._source_split = None
        self._source_stack = None
        self._source_discs = {}
        self._source_forcing = {}

    @property
    def n_sources(self):
        """The parent's noise-source count (intensity cannot change it)."""
        return self.parent.n_sources

    def _per_source_scales(self):
        """The scale vector broadcast to one entry per noise source."""
        n_src = self.parent.n_sources
        if self._uniform is not None:
            return np.full(n_src, self._uniform)
        if self._scales.size != n_src:
            raise ReproError(
                f"{self._scales.size} intensity scales for a system "
                f"with {n_src} noise sources")
        return self._scales

    def _split_sources(self):
        """The parent's per-source split, each source intensity-rescaled.

        Rides on the parent's discretization: one scaled Gramian stack
        and one list of scaled columns per clock phase.
        """
        if self._source_split is None:
            parent = self.parent._split_sources()
            scales = self._per_source_scales()
            amplitude = np.sqrt(scales)
            scaled = {}
            columns = []
            gramians = []
            for cols, stack in zip(parent.columns, parent.gramians):
                entry = scaled.get(id(stack))
                if entry is None:
                    entry = scaled[id(stack)] = (
                        [col * amplitude[s] for s, col in enumerate(cols)],
                        scales[:, None, None] * stack)
                columns.append(entry[0])
                gramians.append(entry[1])
            self._source_split = _SourceSplit(
                disc=parent.disc, columns=columns, gramians=gramians)
        return self._source_split

    @property
    def disc(self):
        """Parent discretization with ``B``/Gramians intensity-rescaled.

        One rescaled ``(B, Gramian)`` pair per distinct parent phase:
        ``α·G`` for a uniform scale, ``Σ_s α_s G_s`` over the parent's
        per-source split otherwise.
        """
        if self._disc is not None:
            self.stats.hit("disc")
            return self._disc
        self.stats.miss("disc")
        parent_disc = self.parent.disc
        if self._uniform is not None:
            scale = self._uniform
            amplitude = np.sqrt(scale)
            drives = [seg.gramian for seg in parent_disc.segments]

            def rescale(gramian):
                return gramian * scale
        else:
            scales = self._per_source_scales()
            amplitude = np.sqrt(scales)[None, :]
            drives = self.parent._split_sources().gramians

            def rescale(stack):
                return np.add.reduce([scales[s] * stack[s]
                                      for s in range(scales.size)])
        shared = {}
        segments = []
        # scn: ignore[SCN008] - bounded per-segment restack of cached
        # parent Gramians, one rescale per phase; no solves inside
        for seg, drive in zip(parent_disc.segments, drives):
            key = (id(seg.b_matrix), id(drive))
            entry = shared.get(key)
            if entry is None:
                entry = shared[key] = (seg.b_matrix * amplitude,
                                       rescale(drive))
            segments.append(replace(seg, b_matrix=entry[0],
                                    gramian=entry[1]))
        self._disc = replace(parent_disc, segments=segments)
        return self._disc

    @property
    def spectral_bases(self):
        """The parent's eigenbases — dynamics are identical by design."""
        return self.parent.spectral_bases

    def forcing_pairs(self, l_row):
        """Intensity-scaled forcing by linearity in the noise PSDs."""
        l_row = np.asarray(l_row, dtype=float)
        key = l_row.tobytes()
        cached = self._forcing.get(key)
        if cached is not None:
            self.stats.hit("forcing")
            return cached
        self.stats.miss("forcing")
        if self._uniform is not None:
            pairs = self._uniform * self.parent.forcing_pairs(l_row)
        else:
            scales = self._per_source_scales()
            pairs = np.add.reduce([
                scales[s] * self.parent.source_forcing_pairs(l_row, s)
                for s in range(scales.size)])
        self._forcing[key] = pairs
        return pairs

    def source_forcing_pairs(self, l_row, source):
        """One source's forcing, scaled by that source's PSD multiplier."""
        source = self._source_index(source)
        l_row = np.asarray(l_row, dtype=float)
        key = (source, l_row.tobytes())
        cached = self._source_forcing.get(key)
        if cached is not None:
            self.stats.hit("source-forcing")
            return cached
        self.stats.miss("source-forcing")
        scale = float(self._per_source_scales()[source])
        pairs = scale * self.parent.source_forcing_pairs(l_row, source)
        self._source_forcing[key] = pairs
        return pairs

    def warm_up(self, l_row=None, sources=False):
        """Warm through the parent, then the cheap scaled overlays.

        Deliberately skips the base class's covariance warm-up: the
        batched path reaches covariance only through the (overridden,
        linearly scaled) forcing pairs, and solving a fresh periodic
        Lyapunov equation per intensity corner would forfeit exactly
        the sharing this class exists for.  Nor does it build a
        discretization: every quantity warmed here is the parent's,
        scaled.  A per-source corner warms the parent's per-source
        forcing, which its own total forcing recombines.
        """
        need_sources = sources or self._uniform is None
        self.parent.warm_up(l_row=l_row, sources=need_sources)
        _ = self.structure, self.monodromy
        if l_row is not None:
            self.forcing_pairs(l_row)
        if sources and l_row is not None:
            for s in range(self.n_sources):
                self.source_forcing_pairs(l_row, s)
        return self

    def __repr__(self):
        kind = ("uniform" if self._uniform is not None
                else f"{self._scales.size}-source")
        return (f"_DerivedIntensityContext({kind}, "
                f"parent={self.parent!r})")


# -- registry ---------------------------------------------------------------

#: Bounded LRU module registry of contexts, keyed by system fingerprint.
#: Guarded by :data:`_REGISTRY_LOCK` — a job-queue dispatcher thread and
#: analyzers constructed concurrently by its callers all pass through here.
_REGISTRY = OrderedDict()
_REGISTRY_LIMIT = 32
_REGISTRY_LOCK = threading.Lock()
#: Registry-level counters (the per-context stats live on the context).
registry_stats = CacheStats()


def discretization_fingerprint(system, segments_per_phase):
    """Content hash of everything that determines a discretization.

    Hashes the phase durations, state/noise/jump matrices, the output
    matrix, and the requested density — so two structurally identical
    systems share a context while *any* mutation (a different duty
    cycle, segment count, or component value) changes the key. Systems
    defined by callables (:class:`~repro.lptv.system.SampledLPTVSystem`)
    cannot be content-hashed and fall back to object identity.
    """
    digest = hashlib.sha256()
    digest.update(type(system).__name__.encode())
    digest.update(repr(segments_per_phase).encode())
    phases = getattr(system, "phases", None)
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

    Returns the cached context when the fingerprint matches a previous
    call (counted as a registry hit) and builds + registers a fresh one
    otherwise.  The registry is a bounded LRU — a hit refreshes the
    entry's recency and the least-recently-used context is evicted at
    the limit — and every access holds :data:`_REGISTRY_LOCK`, so
    concurrent analyzers (a job-queue dispatcher thread and its callers)
    always agree on one context per fingerprint.

    ``family`` salts the key with a parameter-family hash
    (:meth:`repro.circuits.corners.ParameterGrid.family_hash`): a corner
    sweep's contexts — possibly intensity-derived, with rescaled
    Gramians — can then never be served to, or alias, a plain sweep of
    a system that fingerprints identically.  ``build`` supplies the
    context constructor on a miss (e.g. a closure deriving from a
    dynamics root); the default builds a fresh :class:`SweepContext`.
    """
    key = discretization_fingerprint(system, segments_per_phase)
    if family is not None:
        key = f"{key}:family={family}"
    with _REGISTRY_LOCK:
        context = _REGISTRY.get(key)
        if context is not None:
            _REGISTRY.move_to_end(key)
            registry_stats.hit("context")
            return context
        registry_stats.miss("context")
        if build is not None:
            context = build()
        else:
            context = SweepContext(system, segments_per_phase)
        while len(_REGISTRY) >= _REGISTRY_LIMIT:
            _REGISTRY.popitem(last=False)
            registry_stats.evict("context")
        _REGISTRY[key] = context
        return context


def clear_sweep_contexts():
    """Empty the registry (tests; long-lived processes reclaiming memory)."""
    with _REGISTRY_LOCK:
        _REGISTRY.clear()
