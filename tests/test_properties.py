"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.rice import (
    rice_switched_rc_psd,
)
from repro.circuits.switched_rc import SwitchedRcParams, switched_rc_system
from repro.linalg.expm import expm
from repro.linalg.lyapunov import solve_discrete_lyapunov
from repro.linalg.vanloan import vanloan_gramian
from repro.lptv.system import PiecewiseLTISystem
from repro.mft import context as context_module
from repro.mft.context import (
    clear_sweep_contexts,
    discretization_fingerprint,
    registry_stats,
    sweep_context_for,
)
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise.covariance import periodic_covariance
from repro.units import parse_value, format_value


def stable_matrix(draw_values, n):
    a = np.asarray(draw_values, dtype=float).reshape(n, n)
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
    return a - (shift + 0.5) * np.eye(n)


matrix_entries = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    min_size=9, max_size=9)


class TestLinalgProperties:
    @given(matrix_entries)
    @settings(max_examples=30, deadline=None)
    def test_expm_semigroup(self, entries):
        a = stable_matrix(entries, 3)
        assert np.allclose(expm(a) @ expm(a), expm(2 * a),
                           rtol=1e-8, atol=1e-10)

    @given(matrix_entries, st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_gramian_psd_and_additive(self, entries, dt):
        a = stable_matrix(entries, 3)
        bbt = np.eye(3)
        phi, q = vanloan_gramian(a, bbt, dt)
        eigs = np.linalg.eigvalsh(q)
        assert eigs.min() >= -1e-12 * max(eigs.max(), 1e-300)
        phi_h, q_h = vanloan_gramian(a, bbt, dt / 2.0)
        assert np.allclose(phi, phi_h @ phi_h, rtol=1e-8, atol=1e-10)
        assert np.allclose(q, phi_h @ q_h @ phi_h.T + q_h,
                           rtol=1e-7, atol=1e-10)

    @given(matrix_entries)
    @settings(max_examples=30, deadline=None)
    def test_discrete_lyapunov_fixed_point(self, entries):
        phi = np.asarray(entries).reshape(3, 3)
        radius = np.max(np.abs(np.linalg.eigvals(phi)))
        phi = phi / (2.0 * max(radius, 0.5))
        q = np.eye(3)
        k = solve_discrete_lyapunov(phi, q)
        assert np.allclose(phi @ k @ phi.T + q, k, rtol=1e-9,
                           atol=1e-11)
        assert np.linalg.eigvalsh(k).min() > 0.0


class TestUnitsProperties:
    @given(st.floats(min_value=1e-15, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_format_parse_round_trip(self, value):
        assert parse_value(format_value(value)) == pytest.approx(
            value, rel=1e-3)


switched_rc_strategy = st.builds(
    SwitchedRcParams,
    resistance=st.floats(min_value=1e2, max_value=1e5),
    capacitance=st.floats(min_value=1e-12, max_value=1e-8),
    period=st.floats(min_value=1e-6, max_value=1e-3),
    duty=st.floats(min_value=0.05, max_value=0.95),
)


class TestCircuitProperties:
    @given(switched_rc_strategy)
    @settings(max_examples=15, deadline=None)
    def test_variance_always_ktc(self, params):
        sys = switched_rc_system(params)
        cov = periodic_covariance(sys, 16)
        assert np.allclose(cov.variance(0), params.ktc_variance,
                           rtol=1e-6)

    @given(switched_rc_strategy,
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_mft_matches_rice_everywhere(self, params, f_rel):
        freq = f_rel * 3.0 / params.period  # up to 3 clock harmonics
        sys = switched_rc_system(params)
        psd = MftNoiseAnalyzer(sys, segments_per_phase=48).psd_at(freq)
        ref = rice_switched_rc_psd(params, [freq])[0]
        assert psd == pytest.approx(ref, rel=5e-3, abs=1e-30)

    @given(switched_rc_strategy)
    @settings(max_examples=15, deadline=None)
    def test_psd_nonnegative_and_bounded(self, params):
        sys = switched_rc_system(params)
        an = MftNoiseAnalyzer(sys, segments_per_phase=32)
        # Tight envelope: the Rice closed form is the exact spectrum,
        # so the engine may never exceed it by more than rounding, and
        # PSDs are non-negative.
        for f_rel in (0.0, 0.3, 1.7):
            freq = f_rel / params.period
            psd = an.psd_at(freq)
            rice = rice_switched_rc_psd(params, [freq])[0]
            assert psd >= -1e-25
            assert psd <= 1.05 * rice + 1e-30


def _rotated(system, shift):
    """The same periodic system started ``shift`` phases later."""
    phases = list(system.phases)
    phases = phases[shift:] + phases[:shift]
    return PiecewiseLTISystem(
        phases=phases, output_matrix=system.output_matrix,
        state_names=system.state_names,
        output_names=system.output_names)


class TestSweepProperties:
    @given(switched_rc_strategy)
    @settings(max_examples=10, deadline=None)
    def test_swept_psd_nonnegative_after_clipping(self, params):
        # Sweeps clip the (discretization-noise) negative samples; the
        # delivered spectrum must be >= 0 at every finite point, on
        # coarse grids too.
        sys = switched_rc_system(params)
        grid = np.linspace(0.0, 2.0 / params.period, 9)
        result = MftNoiseAnalyzer(sys, segments_per_phase=8).psd(grid)
        finite = np.isfinite(result.psd)
        assert np.all(result.psd[finite] >= 0.0)
        # Whatever was clipped is accounted for in the result info.
        assert result.info["negative_clipped"] >= 0
        assert result.info["worst_negative_psd"] <= 0.0

    @given(switched_rc_strategy)
    @settings(max_examples=10, deadline=None)
    def test_averaged_psd_invariant_under_phase_shift(self, params):
        # The period-averaged PSD is a property of the periodic orbit,
        # not of where the sweep chooses to start the period: rotating
        # the phase schedule must not change it beyond rounding.
        sys = switched_rc_system(params)
        grid = np.linspace(100.0, 2.0 / params.period, 7)
        base = MftNoiseAnalyzer(sys, segments_per_phase=24).psd(grid).psd
        rotated = MftNoiseAnalyzer(_rotated(sys, 1), segments_per_phase=24).psd(grid).psd
        scale = max(np.max(np.abs(base)), 1e-300)
        assert np.max(np.abs(base - rotated)) / scale < 1e-9


class TestCacheKeyProperties:
    def test_same_system_hits_registry(self, rc_system):
        clear_sweep_contexts()
        before = registry_stats.to_dict()
        first = sweep_context_for(rc_system, 32)
        again = sweep_context_for(rc_system, 32)
        after = registry_stats.to_dict()
        assert again is first
        assert after["total_hits"] == before["total_hits"] + 1
        assert after["total_misses"] == before["total_misses"] + 1

    def test_segment_density_invalidates_context(self, rc_system):
        clear_sweep_contexts()
        before = registry_stats.to_dict()
        coarse = sweep_context_for(rc_system, 16)
        fine = sweep_context_for(rc_system, 64)
        after = registry_stats.to_dict()
        assert fine is not coarse
        assert after["total_misses"] == before["total_misses"] + 2
        assert after["total_hits"] == before["total_hits"]

    def test_schedule_mutation_invalidates_context(self, rc_params):
        import dataclasses
        clear_sweep_contexts()
        sys_a = switched_rc_system(rc_params)
        sys_b = switched_rc_system(
            dataclasses.replace(rc_params, duty=rc_params.duty / 2.0))
        assert (discretization_fingerprint(sys_a, 32)
                != discretization_fingerprint(sys_b, 32))
        before = registry_stats.to_dict()
        ctx_a = sweep_context_for(sys_a, 32)
        ctx_b = sweep_context_for(sys_b, 32)
        after = registry_stats.to_dict()
        assert ctx_a is not ctx_b
        assert after["total_misses"] == before["total_misses"] + 2

    def test_structural_twin_shares_context(self, rc_params):
        # Content-addressed keys: two separately built but identical
        # systems must land on the same context (that is the point of
        # fingerprinting instead of id()).
        clear_sweep_contexts()
        ctx_a = sweep_context_for(switched_rc_system(rc_params), 32)
        ctx_b = sweep_context_for(switched_rc_system(rc_params), 32)
        assert ctx_a is ctx_b

    def test_context_stats_count_reuse(self, rc_system, monkeypatch):
        # One cold build per cached quantity, reused by every frequency.
        clear_sweep_contexts()
        builds = []

        def counting(name):
            build = getattr(context_module, name)

            def counted(disc):
                builds.append(name)
                return build(disc)
            return counted

        for name in ("periodic_covariance", "build_structure"):
            monkeypatch.setattr(context_module, name, counting(name))
        context = sweep_context_for(rc_system, 32)
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=32, context=context)
        analyzer.psd(np.linspace(100.0, 4e4, 5))
        analyzer.psd(np.linspace(200.0, 3e4, 5))
        assert sorted(builds) == ["build_structure", "periodic_covariance"]