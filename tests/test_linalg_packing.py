"""Symmetric packing helpers, including hypothesis round-trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.linalg.packing import (
    duplication_index_pairs,
    symmetrize,
    unvech,
    vech,
)


class TestVech:
    def test_count_matches_paper_formula(self):
        # The paper: an N-node circuit needs N(N+1)/2 covariance equations.
        for n in range(1, 8):
            assert vech(np.eye(n)).size == n * (n + 1) // 2

    def test_round_trip(self, rng):
        m = rng.standard_normal((5, 5))
        m = m + m.T
        assert np.allclose(unvech(vech(m)), m)

    def test_explicit_ordering(self):
        m = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(vech(m), [1.0, 2.0, 3.0])

    def test_unvech_infers_size(self):
        assert unvech(np.arange(6.0)).shape == (3, 3)

    def test_unvech_rejects_non_triangular_length(self):
        with pytest.raises(ReproError):
            unvech(np.arange(5.0))

    def test_vech_rejects_non_square(self):
        with pytest.raises(ReproError):
            vech(np.zeros((2, 3)))

    def test_unvech_rejects_matrix_input(self):
        with pytest.raises(ReproError):
            unvech(np.zeros((2, 2)))

    def test_index_pairs_cover_lower_triangle(self):
        rows, cols = duplication_index_pairs(4)
        assert len(rows) == 10
        assert np.all(rows >= cols)

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_round_trip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        m = m + m.T
        packed = vech(m)
        assert packed.size == n * (n + 1) // 2
        assert np.allclose(unvech(packed, n), m)


class TestSymmetrize:
    def test_real(self, rng):
        m = rng.standard_normal((4, 4))
        s = symmetrize(m)
        assert np.allclose(s, s.T)
        assert np.allclose(s, 0.5 * (m + m.T))

    def test_hermitian_for_complex(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = symmetrize(m)
        assert np.allclose(s, s.conj().T)

    def test_idempotent(self, rng):
        m = rng.standard_normal((3, 3))
        assert np.allclose(symmetrize(symmetrize(m)), symmetrize(m))

    def test_stack_is_cleaned_matrix_by_matrix(self, rng):
        m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal(
            (5, 3, 3))
        s = symmetrize(m)
        for k in range(m.shape[0]):
            assert np.array_equal(s[k], symmetrize(m[k]))
