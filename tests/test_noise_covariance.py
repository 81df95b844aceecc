"""Covariance engine: transients, periodic steady state, kT/C checks."""

import numpy as np
import pytest

from repro.errors import ReproError, StabilityError
from repro.linalg.packing import symmetrize
from repro.lptv.system import Phase, PiecewiseLTISystem, lti_phase_system
from repro.noise.covariance import (
    periodic_covariance,
    stationary_covariance,
    transient_covariance,
)
from repro.units import BOLTZMANN, ROOM_TEMPERATURE


class TestStationary:
    def test_scalar_ou(self):
        # dX = -aX + sigma dW: stationary variance sigma^2 / 2a.
        k = stationary_covariance(np.array([[-4.0]]), np.array([[2.0]]))
        assert k[0, 0] == pytest.approx(4.0 / 8.0)

    def test_matches_periodic_engine_on_lti(self, rng):
        from conftest import random_stable_matrix
        a = random_stable_matrix(rng, 3)
        b = rng.standard_normal((3, 2))
        k_ref = stationary_covariance(a, b)
        sys = lti_phase_system(a, b, period=2.0)
        cov = periodic_covariance(sys, 8)
        assert np.allclose(cov.post[0], k_ref, rtol=1e-9)
        # LTI: covariance constant over the whole period.
        assert np.allclose(cov.post, k_ref, rtol=1e-9)


class TestPeriodic:
    def test_switched_rc_ktc(self, rc_system, rc_params):
        cov = periodic_covariance(rc_system, 32)
        ktc = BOLTZMANN * ROOM_TEMPERATURE / rc_params.capacitance
        # The classic result: variance is constant kT/C at every instant.
        assert np.allclose(cov.variance(0), ktc, rtol=1e-9)

    def test_periodicity(self, lowpass_model):
        cov = periodic_covariance(lowpass_model.system, 16)
        assert np.allclose(cov.post[-1], cov.post[0], rtol=1e-8,
                           atol=1e-30)

    def test_output_variance_positive(self, lowpass_model):
        cov = periodic_covariance(lowpass_model.system, 16)
        l_row = lowpass_model.system.output_matrix[0]
        assert np.all(cov.output_variance(l_row) > 0.0)
        assert cov.average_output_variance(l_row) > 0.0

    def test_forcing_samples_shapes(self, lowpass_model):
        cov = periodic_covariance(lowpass_model.system, 8)
        post, pre = cov.forcing_samples(
            lowpass_model.system.output_matrix[0])
        assert post.shape == pre.shape
        assert post.shape[0] == len(cov.grid)

    def test_unstable_system_raises(self):
        unstable = lti_phase_system(np.array([[0.2]]),
                                    np.array([[1.0]]))
        with pytest.raises(StabilityError):
            periodic_covariance(unstable, 4)

    def test_covariance_psd_matrix(self, lowpass_model):
        cov = periodic_covariance(lowpass_model.system, 8)
        for k in range(0, len(cov.grid), 4):
            eigs = np.linalg.eigvalsh(cov.post[k])
            assert eigs.min() >= -1e-12 * max(eigs.max(), 1e-30)


class TestTransient:
    def test_approaches_steady_state(self, rc_system, rc_params):
        times, trace = transient_covariance(rc_system, 20,
                                            segments_per_phase=16)
        ktc = rc_params.ktc_variance
        assert trace[-1][0, 0] == pytest.approx(ktc, rel=1e-6)
        # Monotone approach from zero for this circuit.
        assert trace[0][0, 0] == 0.0
        variances = trace[:, 0, 0]
        assert np.all(np.diff(variances) >= -1e-30)

    def test_matches_segment_loop_across_jumps(self, lowpass_model):
        disc = lowpass_model.system.discretize(4)
        times, trace = transient_covariance(disc, 3)
        n = disc.n_states
        k = np.zeros((n, n))
        want_times, want = [0.0], [k]
        for period_index in range(3):
            for seg in disc.segments:
                k = symmetrize(seg.phi @ k @ seg.phi.T + seg.gramian)
                if seg.jump is not None:
                    k = symmetrize(seg.jump @ k @ seg.jump.T)
                want_times.append(period_index * disc.period + seg.t_end)
                want.append(k)
        assert np.array_equal(times, want_times)
        # Runs propagate by blocked powers, not segment by segment: the
        # samples agree to rounding (~2e-14 of max|K| measured).
        want = np.asarray(want)
        assert np.max(np.abs(trace - want)) <= 1e-13 * np.max(np.abs(want))

    def test_custom_initial_condition(self, rc_system, rc_params):
        k0 = np.array([[5.0 * rc_params.ktc_variance]])
        _times, trace = transient_covariance(rc_system, 20, k0=k0,
                                             segments_per_phase=16)
        # Decays down to kT/C from above.
        assert trace[-1][0, 0] == pytest.approx(rc_params.ktc_variance,
                                                rel=1e-6)

    def test_unstable_growth_linear_ring(self):
        # The linear oscillator model: variance grows without bound,
        # matching the closed form of the draft's eq. (40).
        from repro.oscillator.linear_ring import (
            LinearRingParams,
            linear_ring_system,
            linear_ring_variance,
        )
        params = LinearRingParams()
        a, b = linear_ring_system(params)
        phase = Phase("osc", 1.0 / params.omega_osc * 2 * np.pi / 8,
                      a, b)
        sys = PiecewiseLTISystem(phases=[phase])
        times, trace = transient_covariance(sys, 200,
                                            segments_per_phase=8)
        expected = linear_ring_variance(params, times[-1])
        assert trace[-1][0, 0] == pytest.approx(expected, rel=1e-6)
        # All three nodes share the same variance (draft statement).
        assert trace[-1][1, 1] == pytest.approx(trace[-1][0, 0],
                                                rel=1e-9)
        # Cross-correlations match their closed form too.
        from repro.oscillator.linear_ring import (
            linear_ring_cross_correlation,
        )
        assert trace[-1][0, 1] == pytest.approx(
            linear_ring_cross_correlation(params, times[-1]), rel=1e-6)

    def test_rejects_zero_periods(self, rc_system):
        with pytest.raises(ReproError):
            transient_covariance(rc_system, 0)
