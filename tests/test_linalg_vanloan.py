"""Van Loan Gramians against quadrature and Lyapunov references."""

import itertools

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from repro.errors import ReproError
from repro.linalg.vanloan import phase_discretization, vanloan_gramian
from conftest import random_stable_matrix


def quadrature_gramian(a, bbt, dt):
    def integrand(s):
        e = scipy.linalg.expm(a * s)
        return (e @ bbt @ e.T).ravel()
    out, _err = scipy.integrate.quad_vec(integrand, 0.0, dt,
                                         epsabs=1e-14, epsrel=1e-12)
    return out.reshape(a.shape)


def mpmath_gramian(a, bbt, dt, dps=40):
    """``K − Φ K Φᵀ`` with ``A K + K Aᵀ = −BBᵀ``, at ``dps`` digits (stable A)."""
    mpmath = pytest.importorskip("mpmath")
    n = a.shape[0]
    with mpmath.workdps(dps):
        a_mp = mpmath.matrix(a.tolist())
        kron = mpmath.zeros(n * n)
        for i, j, k in itertools.product(range(n), repeat=3):
            kron[i * n + j, k * n + j] += a_mp[i, k]
            kron[i * n + j, i * n + k] += a_mp[j, k]
        vec = mpmath.lu_solve(kron, mpmath.matrix((-bbt).ravel().tolist()))
        k_inf = mpmath.matrix([[vec[i * n + j] for j in range(n)]
                               for i in range(n)])
        phi = mpmath.expm(a_mp * dt)
        gram = k_inf - phi * k_inf * phi.T
        return np.array(gram.tolist(), dtype=float)


class TestVanLoanGramian:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_quadrature(self, rng, n):
        a = random_stable_matrix(rng, n)
        b = rng.standard_normal((n, max(1, n - 1)))
        phi, gram = vanloan_gramian(a, b @ b.T, 0.7)
        assert np.allclose(phi, scipy.linalg.expm(0.7 * a), rtol=1e-10)
        assert np.allclose(gram, quadrature_gramian(a, b @ b.T, 0.7),
                           rtol=1e-8, atol=1e-12)

    def test_zero_duration(self):
        phi, gram = vanloan_gramian(-np.eye(2), np.eye(2), 0.0)
        assert np.allclose(phi, np.eye(2))
        assert np.allclose(gram, 0.0)

    def test_zero_noise(self, rng):
        a = random_stable_matrix(rng, 3)
        _phi, gram = vanloan_gramian(a, np.zeros((3, 3)), 1.0)
        assert np.allclose(gram, 0.0)

    def test_scalar_ou_closed_form(self):
        # dX = -a X dt + sigma dW: Q_h = sigma^2 (1 - e^{-2ah}) / (2a).
        a, sigma, h = 3.0, 0.5, 0.4
        phi, gram = vanloan_gramian(np.array([[-a]]),
                                    np.array([[sigma ** 2]]), h)
        assert phi[0, 0] == pytest.approx(np.exp(-a * h), rel=1e-12)
        assert gram[0, 0] == pytest.approx(
            sigma ** 2 * (1 - np.exp(-2 * a * h)) / (2 * a), rel=1e-11)

    def test_long_interval_reaches_stationary(self, rng):
        a = random_stable_matrix(rng, 3)
        b = rng.standard_normal((3, 3))
        _phi, gram = vanloan_gramian(a, b @ b.T, 200.0)
        stationary = scipy.linalg.solve_continuous_lyapunov(a, -b @ b.T)
        assert np.allclose(gram, stationary, rtol=1e-8, atol=1e-12)

    def test_stiff_segment_no_overflow(self):
        # ‖A‖·h ≈ 1e3 — the regime that overflowed the naive block form.
        a = np.array([[-1e6, 2e5], [0.0, -3e6]])
        b = np.eye(2)
        phi, gram = vanloan_gramian(a, b, 1e-3)
        assert np.all(np.isfinite(phi)) and np.all(np.isfinite(gram))
        stationary = scipy.linalg.solve_continuous_lyapunov(a, -b)
        assert np.allclose(gram, stationary, rtol=1e-6)

    def test_additivity_across_substeps(self, rng):
        # (Phi,Q) over h must equal the composition of two h/2 halves.
        a = random_stable_matrix(rng, 3)
        bbt = np.eye(3)
        phi_h, q_h = vanloan_gramian(a, bbt, 0.8)
        phi_2, q_2 = vanloan_gramian(a, bbt, 0.4)
        assert np.allclose(phi_h, phi_2 @ phi_2, rtol=1e-10)
        assert np.allclose(q_h, phi_2 @ q_2 @ phi_2.T + q_2,
                           rtol=1e-9, atol=1e-14)

    def test_symmetry_and_psd(self, rng):
        a = random_stable_matrix(rng, 4)
        b = rng.standard_normal((4, 2))
        _phi, gram = vanloan_gramian(a, b @ b.T, 0.5)
        assert np.allclose(gram, gram.T)
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dt", [0.4, 5.0])
    def test_dominant_drive_against_mpmath(self, seed, dt):
        # A drive whose 1-norm dwarfs ‖A‖₁ would set expm's Padé scaling
        # and over-scale the block (8e-12 to 2.7e-10 relative unscaled);
        # it is scaled down to within 2² of ‖A‖₁'s binary magnitude
        # first (1.4e-13 the worst of 40 such draws).
        rng = np.random.default_rng(seed)
        a = 3.0 * random_stable_matrix(rng, 4)
        b = rng.standard_normal(4)
        bbt = np.outer(b, b) * (1e6 / np.abs(np.outer(b, b)).sum(axis=0).max())
        _phi, gram = vanloan_gramian(a, bbt, dt)
        want = mpmath_gramian(a, bbt, dt)
        assert np.abs(gram - want).max() <= 2e-13 * np.abs(want).max()

    def test_rejects_negative_duration(self):
        with pytest.raises(ReproError):
            vanloan_gramian(-np.eye(2), np.eye(2), -1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ReproError):
            vanloan_gramian(-np.eye(2), np.eye(3), 1.0)


class TestPhaseDiscretization:
    def test_segments_share_one_computation(self, rng):
        a = random_stable_matrix(rng, 2)
        b = rng.standard_normal((2, 1))
        segs = phase_discretization(a, b, dt=1.0, substeps=4)
        assert len(segs) == 4
        phi_ref, gram_ref = vanloan_gramian(a, b @ b.T, 0.25)
        for phi, gram in segs:
            assert np.allclose(phi, phi_ref)
            assert np.allclose(gram, gram_ref)

    def test_rejects_zero_substeps(self, rng):
        with pytest.raises(ReproError):
            phase_discretization(-np.eye(2), np.eye(2), 1.0, substeps=0)
