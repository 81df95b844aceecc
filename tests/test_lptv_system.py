"""LPTV containers: phases, switched systems, discretizations."""

import numpy as np
import pytest

from repro.errors import ReproError, ScheduleError
from repro.lptv.discretization import PeriodDiscretization, Segment
from repro.lptv.system import (
    Phase,
    PiecewiseLTISystem,
    SampledLPTVSystem,
    lti_phase_system,
)


def two_phase_system():
    track = Phase("track", 0.6, np.array([[-2.0]]), np.array([[1.0]]))
    hold = Phase("hold", 0.4, np.zeros((1, 1)), np.zeros((1, 1)))
    return PiecewiseLTISystem(phases=[track, hold])


class TestPhase:
    def test_validates_square_a(self):
        with pytest.raises(ReproError):
            Phase("p", 1.0, np.zeros((2, 3)), np.zeros((2, 1)))

    def test_validates_b_rows(self):
        with pytest.raises(ReproError):
            Phase("p", 1.0, np.zeros((2, 2)), np.zeros((3, 1)))

    def test_reshapes_1d_b(self):
        p = Phase("p", 1.0, np.zeros((2, 2)), np.zeros(2))
        assert p.b_matrix.shape == (2, 1)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ScheduleError):
            Phase("p", 0.0, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_jump_shape_checked(self):
        with pytest.raises(ReproError):
            Phase("p", 1.0, np.zeros((2, 2)), np.zeros((2, 1)),
                  end_jump=np.eye(3))


class TestPiecewiseLTISystem:
    def test_period_and_boundaries(self):
        sys = two_phase_system()
        assert sys.period == pytest.approx(1.0)
        assert np.allclose(sys.boundaries, [0.0, 0.6, 1.0])

    def test_phase_lookup_wraps(self):
        sys = two_phase_system()
        assert sys.phase_at(0.1)[0] == 0
        assert sys.phase_at(0.7)[0] == 1
        assert sys.phase_at(1.3)[0] == 0
        assert sys.phase_at(-0.1)[0] == 1

    def test_a_b_of_t(self):
        sys = two_phase_system()
        assert sys.a_of_t(0.0)[0, 0] == -2.0
        assert sys.a_of_t(0.9)[0, 0] == 0.0

    def test_default_output_identity(self):
        sys = two_phase_system()
        assert np.allclose(sys.output_matrix, np.eye(1))
        assert sys.output_names == ["y0"]

    def test_mismatched_phase_dims_rejected(self):
        p1 = Phase("a", 1.0, np.zeros((1, 1)), np.zeros((1, 1)))
        p2 = Phase("b", 1.0, np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ReproError):
            PiecewiseLTISystem(phases=[p1, p2])

    def test_empty_phases_rejected(self):
        with pytest.raises(ScheduleError):
            PiecewiseLTISystem(phases=[])

    def test_output_matrix_column_check(self):
        with pytest.raises(ReproError):
            PiecewiseLTISystem(phases=two_phase_system().phases,
                               output_matrix=np.ones((1, 3)))

    def test_discretize_grid(self):
        disc = two_phase_system().discretize(4)
        assert len(disc.segments) == 8
        assert disc.exact
        assert np.allclose(disc.grid[0], 0.0)
        assert np.allclose(disc.grid[-1], 1.0)
        # Phase boundary present in the grid.
        assert np.min(np.abs(disc.grid - 0.6)) < 1e-15

    def test_discretize_per_phase_counts(self):
        disc = two_phase_system().discretize([2, 6])
        assert len(disc.segments) == 8
        assert sum(1 for s in disc.segments
                   if s.phase_name == "hold") == 6

    def test_discretize_rejects_bad_counts(self):
        with pytest.raises(ScheduleError):
            two_phase_system().discretize([1])
        with pytest.raises(ScheduleError):
            two_phase_system().discretize(0)

    def test_lti_wrapper(self):
        sys = lti_phase_system(-np.eye(2), np.eye(2), period=0.5)
        assert sys.period == 0.5
        assert len(sys.phases) == 1


class TestSampledLPTVSystem:
    def test_discretize_midpoint(self):
        sys = SampledLPTVSystem(
            a_of_t=lambda t: np.array([[-1.0 - np.sin(t)]]),
            b_of_t=lambda _t: np.array([[1.0]]),
            period=2.0 * np.pi, n_states=1)
        disc = sys.discretize(16)
        assert len(disc.segments) == 16
        assert not disc.exact
        assert disc.segments[0].a_matrix.shape == (1, 1)

    def test_rejects_tiny_segments(self):
        sys = SampledLPTVSystem(
            a_of_t=lambda _t: -np.eye(1), b_of_t=lambda _t: np.eye(1),
            period=1.0, n_states=1)
        with pytest.raises(ScheduleError):
            sys.discretize(1)

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ScheduleError):
            SampledLPTVSystem(a_of_t=lambda _t: -np.eye(1),
                              b_of_t=lambda _t: np.eye(1),
                              period=0.0, n_states=1)


class TestPeriodDiscretization:
    def test_gap_detection(self):
        seg1 = Segment(0.0, 0.4, np.eye(1), np.zeros((1, 1)),
                       np.zeros((1, 1)), None, a_matrix=np.zeros((1, 1)))
        seg2 = Segment(0.5, 1.0, np.eye(1), np.zeros((1, 1)),
                       np.zeros((1, 1)), None, a_matrix=np.zeros((1, 1)))
        with pytest.raises(ReproError):
            PeriodDiscretization(segments=[seg1, seg2], period=1.0,
                                 n_states=1)

    def test_monodromy_is_product(self):
        sys = two_phase_system()
        disc = sys.discretize(8)
        # Track phase contributes e^{-2*0.6}; hold contributes identity.
        assert disc.monodromy()[0, 0] == pytest.approx(np.exp(-1.2),
                                                       rel=1e-12)

    def test_period_gramian_matches_direct(self):
        sys = two_phase_system()
        phi, gram = sys.discretize(16).period_gramian()
        # Q_T = integral over track only (hold has B = 0), propagated
        # through the hold phase (identity).
        a, sig = 2.0, 1.0
        expected = sig / (2 * a) * (1 - np.exp(-2 * a * 0.6))
        assert gram[0, 0] == pytest.approx(expected, rel=1e-10)
        assert phi[0, 0] == pytest.approx(np.exp(-1.2), rel=1e-12)

    def test_jump_included_in_monodromy(self):
        p = Phase("p", 1.0, np.zeros((2, 2)), np.zeros((2, 1)),
                  end_jump=np.array([[0.0, 1.0], [1.0, 0.0]]))
        disc = PiecewiseLTISystem(phases=[p]).discretize(3)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(disc.monodromy(), swap)

    def test_shifted_propagators(self):
        disc = two_phase_system().discretize(2)
        omega = 3.0
        shifted = disc.shifted_propagators(omega)
        for seg, mat in zip(disc.segments, shifted):
            assert np.allclose(
                mat, np.exp(-1j * omega * seg.duration) * seg.phi)


def jumping_system():
    """Two phases with end jumps and a fast mode in the first phase."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    fast = Phase("fast", 1e-3, np.diag([-1e6, -1e2]), np.eye(2),
                 end_jump=swap)
    slow = Phase("slow", 7e-4, np.array([[-3e3, 1e2], [0.0, -5e2]]),
                 np.array([[1.0], [0.5]]), end_jump=0.5 * np.eye(2))
    return PiecewiseLTISystem(phases=[fast, slow])


class TestDiscretizationSharing:
    """The per-phase object sharing that set-up work relies on.

    Preflight scans each distinct array once, the structure groups
    segments by shared ``(A, Φ)`` objects, and the per-source split
    keys on shared Gramians: all of them assume these contracts.
    """

    COUNTS = (64, 48)

    def test_uniform_phase_shares_one_object_per_matrix(self):
        system = jumping_system()
        disc = system.discretize(list(self.COUNTS))
        start = 0
        for phase, count in zip(system.phases, self.COUNTS):
            segments = disc.segments[start:start + count]
            first = segments[0]
            for seg in segments:
                assert seg.phase_name == phase.name
                assert seg.phi is first.phi
                assert seg.gramian is first.gramian
                assert seg.a_matrix is phase.a_matrix
                assert seg.b_matrix is phase.b_matrix
            start += count
        # Each phase computed its own propagator.
        assert disc.segments[0].phi is not disc.segments[-1].phi

    def test_only_last_segment_of_a_phase_jumps(self):
        system = jumping_system()
        disc = system.discretize(list(self.COUNTS))
        jumps = [(k, seg.jump) for k, seg in enumerate(disc.segments)
                 if seg.jump is not None]
        assert [k for k, _ in jumps] == [63, 111]
        assert jumps[0][1] is system.phases[0].end_jump
        assert jumps[1][1] is system.phases[1].end_jump

    def test_segment_times_bit_identical_to_linspace(self):
        system = jumping_system()
        disc = system.discretize(list(self.COUNTS))
        t = 0.0
        start = 0
        for phase, count in zip(system.phases, self.COUNTS):
            edges = np.linspace(0.0, phase.duration, count + 1)
            for k in range(count):
                seg = disc.segments[start + k]
                assert seg.t_start == t + edges[k]
                assert seg.t_end == t + edges[k + 1]
            t += phase.duration
            start += count

    def test_boundary_layer_one_vanloan_per_distinct_step(self, monkeypatch):
        from repro.lptv import system as system_module

        calls = []
        real = system_module.vanloan_gramian

        def counting(a_matrix, bbt, dt):
            calls.append(dt)
            return real(a_matrix, bbt, dt)

        monkeypatch.setattr(system_module, "vanloan_gramian", counting)
        system = jumping_system()
        disc = system.discretize(32, boundary_layer=True)
        expected = 0
        for phase in system.phases:
            edges = system_module._phase_edges(phase, 32, True)
            expected += len(set(np.round(np.diff(edges) / phase.duration,
                                         15).tolist()))
        # The fast phase is graded (a log layer of distinct steps); its
        # uniform remainder and the ungraded slow phase share one each.
        assert expected == 18
        assert len(calls) == expected
        assert len({id(seg.phi) for seg in disc.segments}) == expected
