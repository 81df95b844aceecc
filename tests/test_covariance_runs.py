"""Periodic covariance by runs: the blocked scan against the segment loop.

``noise.covariance`` propagates ``K ← Φ K Φᵀ + Q`` once per *run* of
segments that share one ``(Φ, Q)`` (``PeriodDiscretization.runs``):
binary powering for the period map, a blocked scan of ``B = isqrt(L)``
for the samples.  The per-segment recursion it replaced is kept here as
the reference.  The two agree to rounding, so the samples are compared
at ``1e-13 · max|K|`` (about 5× the largest difference measured on the
built-in circuits and the 16/32-state cascades).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import (
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.linalg.expm import expm
from repro.lptv.discretization import (
    accumulate_period_gramian,
    run_power,
    segment_runs,
)
from repro.lptv.system import Phase, PiecewiseLTISystem
from repro.mft.context import SweepContext
from repro.noise.covariance import (
    periodic_covariance,
    steady_state_samples,
    transient_covariance,
)
from repro.translinear.class_a import class_a_system

RTOL = 1e-13

CIRCUITS = {
    "switched-rc": switched_rc_system,
    "sample-hold": sample_hold_system,
    "sc-integrator": sc_integrator_system,
    "sc-lowpass": sc_lowpass_system,
    "sc-bandpass": sc_bandpass_system,
}


def _system(build):
    model = build()
    return getattr(model, "system", model)


def _segment_loop(segments, gramians, k0):
    """The per-segment recursion, ``(pre, post)`` time-major."""
    shape = (len(segments) + 1,) + k0.shape
    pre = np.empty(shape)
    post = np.empty(shape)
    pre[0] = post[0] = k = k0
    for idx, (seg, gram) in enumerate(zip(segments, gramians), 1):
        k = seg.phi @ k @ seg.phi.T + gram
        pre[idx] = k = 0.5 * (k + k.swapaxes(-1, -2))
        if seg.jump is not None:
            k = seg.jump @ k @ seg.jump.T
            k = 0.5 * (k + k.swapaxes(-1, -2))
        post[idx] = k
    return pre, post


def _segment_period_gramian(segments, gramians):
    """``(Φ_T, Q_T)`` accumulated segment by segment."""
    phi = np.eye(segments[0].phi.shape[0])
    gram = np.zeros(np.shape(gramians[0]))
    for seg, seg_gram in zip(segments, gramians):
        gram = seg.phi @ gram @ seg.phi.T + seg_gram
        phi = seg.phi @ phi
        if seg.jump is not None:
            gram = seg.jump @ gram @ seg.jump.T
            phi = seg.jump @ phi
    return phi, 0.5 * (gram + np.swapaxes(gram, -1, -2))


def _assert_close(got, want, rtol=RTOL, scale=None):
    if scale is None:
        scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rtol * scale


def _chain_norm(segments):
    """``Π ‖Φ_k‖ ‖J_k‖``: the scale of a product's rounding error.

    A strongly damped ``Φ_T`` is far smaller than its factors, so its
    error is bounded against them, not against ``Φ_T`` itself.
    """
    norm = 1.0
    for seg in segments:
        norm *= np.linalg.norm(seg.phi, 2)
        if seg.jump is not None:
            norm *= np.linalg.norm(seg.jump, 2)
    return norm


def _per_segment(disc, drives):
    """Per-run ``drives`` repeated for every segment of their run."""
    return [drive for run, drive in zip(disc.runs, drives)
            for _ in range(run.start, run.stop)]


def _check_against_loop(disc, drives, rtol=RTOL):
    """Samples and period map of per-run ``drives`` on ``disc`` vs the loop."""
    pre, post = steady_state_samples(disc, drives)
    gramians = _per_segment(disc, drives)
    stacked = np.ndim(gramians[0]) == 3
    k0 = post[:, 0] if stacked else post[0]
    want_pre, want_post = _segment_loop(disc.segments, gramians, k0)
    if stacked:
        want_pre = np.moveaxis(want_pre, 0, 1)
        want_post = np.moveaxis(want_post, 0, 1)
    _assert_close(pre, want_pre, rtol)
    _assert_close(post, want_post, rtol)
    phi_t, q_t = accumulate_period_gramian(disc.driven_runs(drives))
    want_phi, want_q = _segment_period_gramian(disc.segments, gramians)
    _assert_close(phi_t, want_phi, rtol, _chain_norm(disc.segments))
    _assert_close(q_t, want_q, rtol)
    return pre, post


def _stack(disc, n_drives):
    """Per-run ``(m, n, n)`` drives sharing objects like the split does."""
    shared = {}
    drives = []
    for run in disc.runs:
        stack = shared.get(id(run.gramian))
        if stack is None:
            scales = np.linspace(0.5, 1.5, n_drives)[:, None, None]
            stack = shared[id(run.gramian)] = scales * run.gramian
        drives.append(stack)
    return drives


def _jumped_system(n=3, seed=1):
    """Two phases with charge-sharing jumps at both phase ends."""
    rng = np.random.default_rng(seed)
    a1 = -np.eye(n) * 2e3 + rng.standard_normal((n, n)) * 2e2
    a2 = np.zeros((n, n))
    a2[0, 0] = -5e3
    b = rng.standard_normal((n, 2)) * 1e-3
    mix = np.eye(n)
    mix[:2, :2] = [[0.6, 0.4], [0.4, 0.6]]
    hold = np.eye(n)
    hold[n - 1, n - 1] = 0.9
    return PiecewiseLTISystem(phases=[
        Phase("track", 1e-4, a1, b, end_jump=mix),
        Phase("hold", 2e-4, a2, b * 0.5, end_jump=hold)])


class TestSegmentRuns:
    def test_uniform_phase_is_one_run(self):
        disc = _system(sc_lowpass_system).discretize(16)
        runs = segment_runs(disc.segments,
                            [seg.gramian for seg in disc.segments])
        assert [(start, stop) for start, stop, *_ in runs] == [
            (0, 16), (16, 32)]

    def test_jump_ends_a_run(self):
        disc = _jumped_system().discretize(5)
        runs = segment_runs(disc.segments,
                            [seg.gramian for seg in disc.segments])
        assert [(start, stop) for start, stop, *_ in runs] == [
            (0, 5), (5, 10)]
        assert all(jump is not None for *_, jump in runs)

    def test_drive_identity_splits_runs(self):
        disc = _system(sc_lowpass_system).discretize(4)
        drives = [seg.gramian.copy() for seg in disc.segments]
        runs = segment_runs(disc.segments, drives)
        assert [(start, stop) for start, stop, *_ in runs] == [
            (k, k + 1) for k in range(8)]

    def test_sampled_system_runs_have_length_one(self):
        disc = class_a_system().discretize(16)
        runs = segment_runs(disc.segments,
                            [seg.gramian for seg in disc.segments])
        assert [(start, stop) for start, stop, *_ in runs] == [
            (k, k + 1) for k in range(16)]

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 13, 64])
    def test_run_power_matches_repeated_steps(self, length):
        rng = np.random.default_rng(length)
        phi = expm(-np.eye(3) * 0.1 + rng.standard_normal((3, 3)) * 0.05)
        gram = np.eye(3) + 0.1 * np.ones((3, 3))
        want_phi, want_sum = np.eye(3), np.zeros((3, 3))
        for _ in range(length):
            want_sum = phi @ want_sum @ phi.T + gram
            want_phi = phi @ want_phi
        power, total = run_power(phi, gram, length)
        _assert_close(power, want_phi)
        _assert_close(total, want_sum)


class TestBlockedScan:
    @pytest.mark.parametrize("spp", [1, 7, 13, 64])
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_builtins_match_segment_loop(self, name, spp):
        disc = _system(CIRCUITS[name]).discretize(spp)
        _check_against_loop(disc, [run.gramian for run in disc.runs])

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_graded_grids_match_segment_loop(self, name):
        disc = _system(CIRCUITS[name]).discretize(24, boundary_layer=True)
        _check_against_loop(disc, [run.gramian for run in disc.runs])

    def test_hold_phase_with_unit_multiplier(self):
        # The hold phase's Φ = I (A = 0): powers never decay, and the
        # scan must still track the loop over a long run.
        system = _system(sample_hold_system)
        hold = system.phases[1]
        assert np.allclose(expm(hold.a_matrix * hold.duration),
                           np.eye(hold.n_states))
        disc = system.discretize(50)
        _check_against_loop(disc, [run.gramian for run in disc.runs])

    def test_sampled_system_matches_segment_loop(self):
        disc = class_a_system().discretize(128)
        _check_against_loop(disc, [run.gramian for run in disc.runs])

    @pytest.mark.parametrize("spp", [1, 7, 13])
    def test_jumps_at_run_ends_total_and_stacked(self, spp):
        disc = _jumped_system().discretize(spp)
        _check_against_loop(disc, [run.gramian for run in disc.runs])
        _check_against_loop(disc, _stack(disc, 4))

    @pytest.mark.parametrize("name", ["sc-lowpass", "sc-bandpass"])
    def test_source_split_stack_matches_segment_loop(self, name):
        context = SweepContext(_system(CIRCUITS[name]),
                               segments_per_phase=13)
        split = context._split_sources()
        _check_against_loop(context.disc, split.gramians)

    @pytest.mark.parametrize("spp", [7, 13])
    def test_stacked_entry_is_bit_identical_to_its_drive(self, spp):
        disc = _jumped_system().discretize(spp)
        drives = _stack(disc, 3)
        pre, post = steady_state_samples(disc, drives)
        views = {id(stack): list(stack) for stack in drives}
        for i in range(3):
            alone = steady_state_samples(
                disc, [views[id(stack)][i] for stack in drives])
            assert np.array_equal(pre[i], alone[0])
            assert np.array_equal(post[i], alone[1])

    def test_samples_are_symmetric(self):
        disc = _jumped_system().discretize(13)
        cov = periodic_covariance(disc)
        assert np.array_equal(cov.pre, cov.pre.swapaxes(-1, -2))
        assert np.array_equal(cov.post, cov.post.swapaxes(-1, -2))

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_jump_free_post_is_pre(self, name):
        disc = _system(CIRCUITS[name]).discretize(13)
        assert all(seg.jump is None for seg in disc.segments)
        cov = periodic_covariance(disc)
        assert cov.post is cov.pre
        pre, post = steady_state_samples(disc, _stack(disc, 3))
        assert post is pre

    @pytest.mark.parametrize("spp", [1, 7])
    def test_jumps_change_only_jump_rows(self, spp):
        disc = _jumped_system().discretize(spp)
        jump_rows = [idx for idx, seg in enumerate(disc.segments, 1)
                     if seg.jump is not None]
        for drives in ([run.gramian for run in disc.runs],
                       _stack(disc, 3)):
            pre, post = steady_state_samples(disc, drives)
            assert post is not pre
            same = np.ones(len(disc.grid), dtype=bool)
            same[jump_rows] = False
            assert np.array_equal(pre[..., same, :, :],
                                  post[..., same, :, :])
            assert not np.any(np.all(
                pre[..., jump_rows, :, :] == post[..., jump_rows, :, :],
                axis=(-2, -1)))

    def test_transient_matches_segment_loop_with_jumps(self):
        disc = _jumped_system().discretize(7)
        times, trace = transient_covariance(disc, 4)
        gramians = [seg.gramian for seg in disc.segments]
        k = np.zeros((disc.n_states, disc.n_states))
        want = [k]
        for _ in range(4):
            _pre, post = _segment_loop(disc.segments, gramians, k)
            want.extend(post[1:])
            k = post[-1]
        assert times.shape == (len(want),)
        _assert_close(trace, np.asarray(want))


# -- random stable switched systems ----------------------------------------

@st.composite
def stable_switched_systems(draw):
    """Stable piecewise-LTI systems with multipliers pushed toward 1.

    Random phase matrices (a normal part plus a bounded non-normal
    perturbation) are shifted by one common ``−cI``, which scales the
    monodromy by ``e^{−cT}`` and so places its spectral radius at a drawn
    target up to 0.999.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    n_phases = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    radius = draw(st.sampled_from([0.5, 0.9, 0.99, 0.999]))
    with_jumps = draw(st.booleans())
    rng = np.random.default_rng(seed)
    phases = []
    for p in range(n_phases):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rates = -rng.uniform(0.0, 3.0, n)
        a = q @ np.diag(rates) @ q.T + 0.3 * rng.standard_normal((n, n))
        b = rng.standard_normal((n, rng.integers(1, n + 1)))
        jump = None
        if with_jumps and rng.random() < 0.5:
            jump = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        phases.append(Phase(f"p{p}", rng.uniform(0.2, 1.0), a, b,
                            end_jump=jump))
    period = sum(phase.duration for phase in phases)
    system = PiecewiseLTISystem(phases=phases)
    monodromy = system.discretize(1).monodromy()
    rho = np.max(np.abs(np.linalg.eigvals(monodromy)))
    shift = (np.log(rho) - np.log(radius)) / period
    spp = draw(st.sampled_from([3, 7, 13, 16]))
    return PiecewiseLTISystem(phases=[
        Phase(phase.name, phase.duration,
              phase.a_matrix - shift * np.eye(n), phase.b_matrix,
              end_jump=phase.end_jump)
        for phase in phases]), spp


@given(stable_switched_systems())
@settings(max_examples=25, deadline=None)
def test_random_systems_match_loop_and_fixed_point(case):
    system, spp = case
    disc = system.discretize(spp)
    _pre, post = _check_against_loop(disc, [run.gramian for run in disc.runs])
    gramians = [seg.gramian for seg in disc.segments]
    # The period-start sample is the fixed point of the one-period map
    # accumulated segment by segment, independently of ``run_power``
    # (largest residual over 300 draws: 8e-15 of max|K₀|).
    phi_t, q_t = _segment_period_gramian(disc.segments, gramians)
    k0 = post[0]
    residual = phi_t @ k0 @ phi_t.T + q_t - k0
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(k0))
