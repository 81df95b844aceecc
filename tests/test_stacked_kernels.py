"""Stacked linear-algebra kernels against their 2-D calls.

Per-source attribution sets up every noise source of a clock phase in
one pass: ``expm`` and ``vanloan_gramian`` take a leading stack axis
(one block exponential, one shared doubling composition per phase), and
``solve_discrete_lyapunov`` solves a stack of drives on one monodromy.
These tests pin each stacked kernel to its own 2-D call — to rounding
where the stack shares a Padé order and scaling, bit for bit where the
algorithm is per-member — and the per-source split to the per-column
loop it replaced.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.circuits import (
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.errors import (
    ConvergenceError,
    ReproError,
    SingularMatrixError,
    StabilityError,
)
from repro.linalg.expm import expm
from repro.linalg.lyapunov import solve_discrete_lyapunov
from repro.linalg.vanloan import vanloan_gramian
from repro.mft import context as context_module
from repro.mft.context import SweepContext, split_source_gramians
from repro.noise.covariance import periodic_covariance
from conftest import random_stable_matrix
from test_covariance_runs import _jumped_system

CIRCUITS = {
    "switched-rc": switched_rc_system,
    "sample-hold": sample_hold_system,
    "sc-integrator": sc_integrator_system,
    "sc-lowpass": sc_lowpass_system,
    "sc-bandpass": sc_bandpass_system,
}


def _relative(got, want):
    """``max|got − want| / max|want|``; exact agreement for a zero ``want``."""
    scale = np.max(np.abs(want))
    if scale == 0.0:
        return 0.0 if np.array_equal(got, want) else np.inf
    return float(np.max(np.abs(got - want)) / scale)


def _outer_stack(b):
    """``(m, n, n)`` stack of the single-column drives ``b_s b_sᵀ``."""
    return np.stack([np.outer(col, col) for col in b.T])


class TestStackedExpm:
    @pytest.mark.parametrize("n", [2, 5, 9])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_members_match_their_2d_calls(self, rng, n, kind):
        # The stack takes the Padé order and scaling of its largest
        # member.  1-norms within one decade, as a Van Loan stack's are
        # once its drives share one binary magnitude; a wider spread
        # over-scales the small members (up to 1.6e-14 measured over
        # three decades, 7e-15 over one).
        stack = np.stack([random_stable_matrix(rng, n) * scale
                          for scale in np.logspace(-0.5, 0.5, 4)])
        if kind == "complex":
            stack = stack + 1j * rng.standard_normal(stack.shape)
        result = expm(stack)
        assert result.shape == stack.shape
        for member, got in zip(stack, result):
            assert _relative(got, expm(member)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_stack_of_one_is_the_2d_call(self, rng, n):
        a = rng.standard_normal((n, n)) * 3.0
        for matrix in (a, a + 1j * rng.standard_normal((n, n))):
            assert np.array_equal(expm(matrix[None])[0], expm(matrix))

    def test_2d_call_matches_scipy(self, rng):
        a = rng.standard_normal((6, 6)) * 4.0
        assert np.allclose(expm(a), scipy.linalg.expm(a), rtol=1e-11,
                           atol=1e-13)

    def test_empty_stack(self):
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 3), (3,)])
    def test_rejects_non_square_or_deep_stacks(self, shape):
        with pytest.raises(ReproError):
            expm(np.zeros(shape))


class TestStackedVanLoan:
    @staticmethod
    def _segment(rng, n, m):
        """Switch-like dynamics with circuit-sized noise columns."""
        a = random_stable_matrix(rng, n) * 1e6
        b = rng.standard_normal((n, m)) * np.logspace(-1, 1, m)
        return a, _outer_stack(b)

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 5), (6, 4)])
    @pytest.mark.parametrize("dt", [2e-7, 5e-6])
    def test_members_match_their_2d_calls(self, rng, n, m, dt):
        a, drives = self._segment(rng, n, m)
        phi, grams = vanloan_gramian(a, drives, dt)
        assert grams.shape == drives.shape
        for drive, gram in zip(drives, grams):
            phi_2d, gram_2d = vanloan_gramian(a, drive, dt)
            assert _relative(gram, gram_2d) <= 1e-14
            assert _relative(phi, phi_2d) <= 1e-14
        assert np.array_equal(grams, grams.swapaxes(-1, -2))

    def test_stack_of_one_is_the_2d_call(self, rng):
        a, drives = self._segment(rng, 4, 1)
        phi, grams = vanloan_gramian(a, drives, 3e-6)
        phi_2d, gram_2d = vanloan_gramian(a, drives[0], 3e-6)
        assert np.array_equal(phi, phi_2d)
        assert np.array_equal(grams[0], gram_2d)

    def test_small_drive_is_not_over_scaled(self, rng):
        # A drive whose norm dwarfs ‖A‖ would set the stack's Padé
        # scaling; each drive is scaled to the smallest one's binary
        # magnitude first, so the small drive keeps its own 2-D result
        # and the large one stays accurate against a Lyapunov reference.
        a = random_stable_matrix(rng, 4) * 3.0
        b = rng.standard_normal((4, 2)) * np.array([1e-3, 1e3])
        drives = _outer_stack(b)
        dt = 0.4
        _phi, grams = vanloan_gramian(a, drives, dt)
        assert _relative(grams[0], vanloan_gramian(a, drives[0], dt)[1]) \
            <= 1e-14
        phi = scipy.linalg.expm(a * dt)
        k_inf = scipy.linalg.solve_continuous_lyapunov(a, -drives[1])
        assert _relative(grams[1], k_inf - phi @ k_inf @ phi.T) <= 1e-12

    def test_zero_drive_and_zero_duration(self, rng):
        a, drives = self._segment(rng, 3, 3)
        drives[1] = 0.0
        _phi, grams = vanloan_gramian(a, drives, 1e-6)
        assert not np.any(grams[1])
        phi, grams = vanloan_gramian(a, drives, 0.0)
        assert np.array_equal(phi, np.eye(3))
        assert grams.shape == drives.shape and not np.any(grams)

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 3, 2), (2, 2, 3, 3)])
    def test_rejects_bad_stacks(self, shape):
        with pytest.raises(ReproError):
            vanloan_gramian(-np.eye(3), np.zeros(shape), 1.0)


class TestStackedLyapunov:
    @staticmethod
    def _drives(rng, n):
        """Drives on a fast and a slow mode (different Smith iteration
        counts), a mixed one, and a zero drive."""
        fast = np.zeros((n, n))
        fast[-1, -1] = 1.0
        slow = np.zeros((n, n))
        slow[0, 0] = 1.0
        b = rng.standard_normal((n, n))
        return np.stack([fast, slow, b @ b.T, np.zeros((n, n))])

    def test_entries_are_bit_identical_to_2d_solves(self, rng):
        n = 4
        # Lower triangular: the last unit vector is the 0.05 mode.
        phi = (np.diag([0.995, 0.6, 0.3, 0.05])
               + np.tril(0.1 * rng.standard_normal((n, n)), -1))
        drives = self._drives(rng, n)
        solved = solve_discrete_lyapunov(phi, drives)
        assert solved.shape == drives.shape
        for drive, got in zip(drives, solved):
            assert np.array_equal(got, solve_discrete_lyapunov(phi, drive))
        assert not np.any(solved[-1])
        residual = solved[2] - phi @ solved[2] @ phi.T - drives[2]
        assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(solved[2]))

    def test_complex_entries_are_bit_identical(self, rng):
        n = 3
        phi = 0.5 * (rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        drives = self._drives(rng, n).astype(complex)
        solved = solve_discrete_lyapunov(phi, drives)
        for drive, got in zip(drives, solved):
            assert np.array_equal(got, solve_discrete_lyapunov(phi, drive))

    def test_unstable_stack_raises(self, rng):
        with pytest.raises(StabilityError):
            solve_discrete_lyapunov(np.diag([1.01, 0.5]),
                                    self._drives(rng, 2))

    def test_unconverged_stack_raises(self, rng):
        with pytest.raises(ConvergenceError):
            solve_discrete_lyapunov(np.diag([0.999, 0.5]),
                                    self._drives(rng, 2), max_doublings=2)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (2, 2, 2, 2), (0, 2, 2)])
    def test_rejects_mismatched_stacks(self, shape):
        with pytest.raises(SingularMatrixError):
            solve_discrete_lyapunov(0.5 * np.eye(2), np.zeros(shape))


def _per_column_split(disc, n_src):
    """The per-column loop the stacked split replaced, one list per phase."""
    by_phase = {}
    for seg in disc.segments:
        key = (id(seg.a_matrix), id(seg.b_matrix), id(seg.gramian))
        if key in by_phase:
            continue
        grams = [vanloan_gramian(seg.a_matrix, np.outer(col, col),
                                 seg.duration)[1]
                 for col in seg.b_matrix.T]
        defect = seg.gramian - np.add.reduce(grams)
        traces = np.array([np.trace(g) for g in grams])
        weights = (traces / traces.sum() if traces.sum() > 0.0
                   else np.full(n_src, 1.0 / n_src))
        by_phase[key] = np.stack([g + w * defect
                                  for g, w in zip(grams, weights)])
    return by_phase


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_split_matches_per_column_loop(name):
    model = CIRCUITS[name]()
    context = SweepContext(getattr(model, "system", model),
                           segments_per_phase=16)
    disc = context.disc
    split = split_source_gramians(disc, context.n_sources)
    reference = _per_column_split(disc, context.n_sources)
    assert len({id(stack) for stack in split.gramians}) == len(reference)
    assert len(split.gramians) == len(disc.runs)
    for run, stack in zip(disc.runs, split.gramians):
        want = reference[(id(run.a_matrix), id(run.b_matrix),
                          id(run.gramian))]
        for got_s, want_s in zip(stack, want):
            assert _relative(got_s, want_s) <= 1e-14


@pytest.mark.parametrize("name", sorted(CIRCUITS) + ["jumped"])
def test_total_covariance_rides_in_source_stack(name, monkeypatch):
    # An attributed warm-up solves the sources first, with the total as
    # one more drive of the stacked pass.
    if name == "jumped":
        system = _jumped_system()
    else:
        model = CIRCUITS[name]()
        system = getattr(model, "system", model)
    context = SweepContext(system, segments_per_phase=16)
    solved_alone = []
    monkeypatch.setattr(context_module, "periodic_covariance",
                        lambda disc: solved_alone.append(disc))
    context.warm_up(sources=True)
    assert solved_alone == []
    reference = periodic_covariance(context.disc)
    cov = context.covariance
    assert np.array_equal(cov.pre, reference.pre)
    assert np.array_equal(cov.post, reference.post)
    jump_free = all(seg.jump is None for seg in context.disc.segments)
    assert (cov.post is cov.pre) == jump_free
    # Views of one stacked array, each counted once by the registry.
    stack = context._source_stack
    views = {id(a): a.nbytes
             for a in (cov.pre, cov.post, stack.pre, stack.post)}
    factor = 1 if jump_free else 2
    assert sum(views.values()) == (
        factor * (context.n_sources + 1) * reference.pre.nbytes)
