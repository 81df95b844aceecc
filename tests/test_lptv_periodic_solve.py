"""Periodic steady-state solver: fixed points, jumps, quadrature."""

import numpy as np
import pytest
import scipy.integrate

from repro.errors import ReproError
from repro.lptv.periodic_solve import (
    forcing_from_samples,
    periodic_steady_state,
)
from repro.lptv.system import Phase, PiecewiseLTISystem


def make_disc(a_value=-2.0, period=1.0, segments=16):
    phase = Phase("p", period, np.array([[a_value]]), np.array([[1.0]]))
    return PiecewiseLTISystem(phases=[phase]).discretize(segments)


def constant_forcing(disc, value):
    samples = np.full((len(disc.segments) + 1, disc.n_states), value,
                      dtype=complex)
    return forcing_from_samples(disc, samples)


class TestFixedPoint:
    def test_constant_forcing_lti(self):
        # dv/dt = -2v + 3: periodic solution is the constant 1.5.
        disc = make_disc()
        sol = periodic_steady_state(disc, 0.0, constant_forcing(disc, 3.0))
        assert np.allclose(sol.post, 1.5, rtol=1e-12)

    def test_frequency_shift(self):
        # dv/dt = (-2 - jω)v + 3: constant solution 3/(2 + jω).
        disc = make_disc()
        omega = 5.0
        sol = periodic_steady_state(disc, omega,
                                    constant_forcing(disc, 3.0))
        assert np.allclose(sol.post, 3.0 / (2.0 + 1j * omega),
                           rtol=1e-12)

    def test_sinusoidal_forcing_matches_ivp(self):
        period = 1.0
        disc = make_disc(period=period, segments=256)
        grid = disc.grid
        forcing_samples = np.cos(2.0 * np.pi * grid)[:, None].astype(
            complex)
        forcing = forcing_from_samples(disc, forcing_samples)
        sol = periodic_steady_state(disc, 0.0, forcing)
        # Long transient of the same ODE reaches the same steady state.
        ref = scipy.integrate.solve_ivp(
            lambda t, v: -2.0 * v + np.cos(2.0 * np.pi * t),
            (0.0, 20.0), [0.0], rtol=1e-11, atol=1e-13).y[0, -1]
        # Dominant error: piecewise-linear interpolation of the forcing
        # between grid points, O((2π/segments)²).
        assert sol.post[0, 0].real == pytest.approx(ref, rel=2e-4)
        assert abs(sol.post[0, 0].imag) < 1e-12

    def test_periodicity_of_returned_trace(self):
        disc = make_disc(segments=8)
        sol = periodic_steady_state(disc, 1.0,
                                    constant_forcing(disc, 1.0))
        assert np.allclose(sol.post[-1], sol.post[0], rtol=1e-10)

    def test_jump_handling(self):
        # One phase ending in a gain-0.5 jump, no decay, forcing 1:
        # v(T^-) = v0 + T, v0 = 0.5 v(T^-)  =>  v0 = T/(2 - 1) * 0.5...
        period = 1.0
        phase = Phase("p", period, np.zeros((1, 1)), np.zeros((1, 1)),
                      end_jump=np.array([[0.5]]))
        disc = PiecewiseLTISystem(phases=[phase]).discretize(4)
        sol = periodic_steady_state(disc, 0.0,
                                    constant_forcing(disc, 1.0))
        v0 = sol.post[0, 0]
        # Fixed point: v0 = 0.5 (v0 + 1)  =>  v0 = 1.
        assert v0.real == pytest.approx(1.0, rel=1e-12)
        assert sol.pre[-1, 0].real == pytest.approx(2.0, rel=1e-12)

    def test_forcing_shape_validation(self):
        disc = make_disc(segments=4)
        with pytest.raises(ReproError):
            periodic_steady_state(disc, 0.0, np.zeros((3, 2, 1)))

    def test_forcing_from_samples_validation(self):
        disc = make_disc(segments=4)
        with pytest.raises(ReproError):
            forcing_from_samples(disc, np.zeros((3, 1)))

    def test_forcing_pairs_match_segment_loop(self, rng):
        disc = make_disc(segments=8)
        post = rng.standard_normal((9, 3))
        pre = rng.standard_normal((9, 3))
        forcing = forcing_from_samples(disc, post, pre)
        for k in range(8):
            assert np.array_equal(forcing[k, 0], post[k])
            assert np.array_equal(forcing[k, 1], pre[k + 1])

    def test_pre_post_forcing_sides(self):
        disc = make_disc(segments=2)
        post = np.ones((3, 1))
        pre = 2.0 * np.ones((3, 1))
        forcing = forcing_from_samples(disc, post, pre)
        assert forcing[0, 0, 0] == 1.0   # left edge: post side
        assert forcing[0, 1, 0] == 2.0   # right edge: pre side


class TestQuadrature:
    def test_integrate_dot_constant(self):
        disc = make_disc()
        sol = periodic_steady_state(disc, 0.0,
                                    constant_forcing(disc, 3.0))
        assert sol.integrate_dot()[0].real == pytest.approx(1.5,
                                                            rel=1e-12)

    def test_integrate_dot_exact_for_sampled_forcing(self):
        # The period integral uses the identity A∫v = Δv − ∫f, which is
        # exact for the (piecewise-linear) forcing the solver actually
        # sees: the mean of the discrete periodic solution of
        # v' = -2v + cos(2πt) is zero to rounding at *every* grid
        # density, because the interpolant of cos still has zero mean.
        for segments in (8, 16, 32):
            disc = make_disc(period=1.0, segments=segments)
            grid = disc.grid
            forcing = forcing_from_samples(
                disc, np.cos(2 * np.pi * grid)[:, None].astype(complex))
            sol = periodic_steady_state(disc, 0.0, forcing)
            assert abs(sol.integrate_dot()[0]) < 1e-14

    def test_lti_limit_is_transfer_function(self):
        # For an LTI "switched" system with constant covariance forcing,
        # PSD machinery reduces to |H|²: q = K/(a + jω), 2Re q·... —
        # checked here at the level of the solver: constant forcing K
        # gives q = K/(a + jω) independent of segmentation.
        for segments in (3, 7, 50):
            disc = make_disc(a_value=-7.0, segments=segments)
            sol = periodic_steady_state(disc, 11.0,
                                        constant_forcing(disc, 4.0))
            assert np.allclose(sol.post, 4.0 / (7.0 + 11.0j), rtol=1e-12)
