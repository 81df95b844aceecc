"""Frequency-batched spectral kernel vs. the per-ω reference path.

The spectral-batch solver (:mod:`repro.mft.spectral`) must reproduce the
reference sweep — values within the 1e-9 equivalence budget, *identical*
NaN masks and failure records — and its per-segment step integrals must
be the reference's own, bit for bit, in every branch.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.linalg.phi as phi_module
import repro.mft.executor as executor
import repro.mft.spectral as spectral
from repro.circuit.netlist import Netlist
from repro.circuit.opamp import add_source_follower_opamp
from repro.circuit.phases import ClockSchedule
from repro.circuit.statespace import build_lptv_system
from repro.circuits import (
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.errors import ReproError
from repro.linalg.checked import batched_solve, condition_number
from repro.lptv.periodic_solve import periodic_steady_state
from repro.lptv.system import Phase, PiecewiseLTISystem, SampledLPTVSystem
from repro.mft.context import (
    SweepContext,
    clear_sweep_contexts,
    propagate_runs,
    sweep_context_for,
)
from repro.mft.engine import MftNoiseAnalyzer
from repro.mft.spectral import group_period_integral, solve_spectral_batch
from repro.diagnostics.fallback import FallbackPolicy
from repro.linalg.phi import SERIES_THRESHOLD, affine_step_integrals
from repro.tolerances import (
    CONDITION_BOUND_ROUNDING,
    DIRECT_SOLVE_COND_LIMIT,
    RESOLVENT_NORM_THRESHOLD,
)

from conftest import random_stable_matrix
from test_diagnostics import marginal_system
from test_jumps_and_sampled_systems import ideal_sample_hold

SPECTRAL_REL_TOL = 1e-9


def _failure_records(result):
    return [(f.index, f.stage, f.error) for f in result.info["failures"]]


def _assert_spectral_equivalent(reference, spectral):
    assert np.array_equal(np.isnan(reference.psd), np.isnan(spectral.psd))
    finite = np.isfinite(reference.psd)
    if np.any(finite):
        scale = np.max(np.abs(reference.psd[finite]))
        assert np.max(np.abs(spectral.psd[finite]
                             - reference.psd[finite])) <= (
            SPECTRAL_REL_TOL * scale)
    assert _failure_records(reference) == _failure_records(spectral)


class TestBatchedSolveEquivalence:
    def test_switched_rc_matches_reference(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 40)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    def test_sc_lowpass_matches_reference(self, lowpass_model):
        analyzer = MftNoiseAnalyzer(lowpass_model.system,
                                    segments_per_phase=16)
        freqs = np.linspace(100.0, 12e3, 48)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    def test_injected_nonfinite_frequencies(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 24)
        freqs[2] = np.inf
        freqs[9] = np.nan
        freqs[17] = -np.inf
        reference = analyzer.psd_sweep(freqs)
        spectral = analyzer.psd_sweep(freqs, solver="spectral-batch")
        _assert_spectral_equivalent(reference, spectral)
        assert [r[1] for r in _failure_records(spectral)] == ["input"] * 3

    def test_condition_gate_reruns_through_fallback_chain(self, rc_system):
        # cond(I − M) >= 1 always, so a sub-unity limit rejects every
        # direct solve; both paths must rescue each frequency through
        # the identical fallback chain (regularized solve succeeds).
        policy = FallbackPolicy(condition_limit=0.5,
                                enable_brute_force=False)
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16,
                                    fallback=policy)
        freqs = np.linspace(100.0, 30e3, 8)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))


class TestBatchedSolveValidation:
    def test_unknown_solver_rejected(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        with pytest.raises(ReproError, match="solver"):
            analyzer.psd_sweep([1e3], solver="eigen-magic")

    def test_nonfinite_omegas_rejected_by_kernel(self, rc_system):
        context = sweep_context_for(rc_system, 16)
        analyzer = MftNoiseAnalyzer(rc_system, context=context)
        forcing = analyzer._forcing_pairs()
        with pytest.raises(ReproError, match="finite"):
            solve_spectral_batch(context, np.array([1e3, np.inf]), forcing)

    def test_bad_forcing_shape_rejected(self, rc_system):
        context = sweep_context_for(rc_system, 16)
        with pytest.raises(ReproError, match="forcing"):
            solve_spectral_batch(context, np.array([1e3]),
                                 np.zeros((3, 2, 1)))

    def test_empty_omega_block(self, rc_system):
        context = sweep_context_for(rc_system, 16)
        analyzer = MftNoiseAnalyzer(rc_system, context=context)
        forcing = analyzer._forcing_pairs()
        batch = solve_spectral_batch(context, np.empty(0), forcing)
        assert batch.integral.shape == (0, context.disc.n_states)
        assert batch.ok.shape == (0,)

    def test_budget_gates_block_dispatch(self, rc_system):
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        freqs = np.linspace(100.0, 30e3, 12)
        result = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    budget=0.0)
        assert np.all(np.isnan(result.psd))
        assert all(f.stage == "budget"
                   for f in result.info["failures"])
        assert len(result.info["failures"]) == freqs.size


def _jordan_system():
    """Two-phase system whose first phase matrix is a Jordan block.

    The Jordan block is defective — it has no eigenbasis at all — while
    the second phase is comfortably diagonalizable.
    """
    tau = 1e-5
    jordan = np.array([[-2.0 / tau, 1.0 / tau],
                       [0.0, -2.0 / tau]])
    plain = np.array([[-1.0 / tau, 0.0],
                      [0.0, -3.0 / tau]])
    b = np.array([[1.0], [0.5]])
    return PiecewiseLTISystem(
        phases=[
            Phase(name="jordan", duration=tau, a_matrix=jordan, b_matrix=b),
            Phase(name="plain", duration=tau, a_matrix=plain, b_matrix=b),
        ],
        output_matrix=np.array([[1.0, 0.0]]))


def _nilpotent_system():
    """A nilpotent phase whose shifted matrix is singular at ω = 0.

    ``‖A‖₁h`` is far above the series threshold, so at ω = 0 the
    reference's LU fails and it substeps the series instead.
    """
    tau = 1e-5
    return PiecewiseLTISystem(
        phases=[
            Phase(name="nilpotent", duration=tau,
                  a_matrix=np.array([[0.0, 1e6], [0.0, 0.0]]),
                  b_matrix=np.eye(2)),
            Phase(name="settle", duration=tau,
                  a_matrix=-1e5 * np.eye(2), b_matrix=np.eye(2)),
        ],
        output_matrix=np.array([[1.0, 0.0]]))


def _series_rows(system, segments_per_phase, freqs):
    """Compare every group's batched step integrals with the reference.

    Asserts that each ``(I1, I2)`` row equals
    :func:`affine_step_integrals` exactly, and returns each group's
    number of series rows (of ``len(freqs)``).
    """
    context = SweepContext(system, segments_per_phase=segments_per_phase)
    omegas = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    counts = []
    for group in context.structure.groups:
        norm_h = spectral._group_norm_h(group.a_matrix, omegas,
                                        group.duration)
        i1, i2 = spectral._step_integrals(group, omegas, norm_h)
        eye = np.eye(group.a_matrix.shape[0])
        for f, omega in enumerate(omegas):
            _phi, ref1, ref2 = affine_step_integrals(
                group.a_matrix.astype(complex) - 1j * omega * eye,
                group.duration,
                phi=np.exp(-1j * omega * group.duration) * group.phi)
            assert np.array_equal(i1[f], ref1)
            assert np.array_equal(i2[f], ref2)
        counts.append(int(np.count_nonzero(norm_h < SERIES_THRESHOLD)))
    return counts


class TestStepIntegrals:
    """The batched step integrals are ``affine_step_integrals`` stacked
    over ω: every row equals the reference's, in each of its branches."""

    # The hold phases of the switched RC and the S/H have A = 0, so
    # their rows are all series below ~0.64 f_clk at 64 segments per
    # phase; the Jordan system's two phases are all series at 128.
    @pytest.mark.parametrize("system, segments_per_phase, freqs", [
        (switched_rc_system(), 64, np.linspace(100.0, 6e3, 20)),
        (sample_hold_system().system, 64, np.linspace(100.0, 30e3, 20)),
        (_jordan_system(), 128, np.linspace(1e3, 30e3, 16)),
    ], ids=["switched-rc", "sample-hold", "jordan"])
    def test_all_series_block(self, system, segments_per_phase, freqs):
        counts = _series_rows(system, segments_per_phase, freqs)
        assert max(counts) == len(freqs)

    def test_all_lu_block(self, lowpass_model):
        counts = _series_rows(lowpass_model.system, 64,
                              np.linspace(100.0, 12e3, 20))
        assert not any(counts)

    def test_mixed_block(self, rc_system):
        period = SweepContext(rc_system, 64).structure.period
        counts = _series_rows(rc_system, 64,
                              np.linspace(0.1, 2.0, 40) / period)
        assert sorted(counts) == [0, 12]

    def test_singular_shifted_matrix_takes_the_reference(self, monkeypatch):
        calls = []
        substep = phi_module._substep_series

        def counted(*args):
            calls.append(args)
            return substep(*args)

        monkeypatch.setattr(phi_module, "_substep_series", counted)
        assert not any(_series_rows(_nilpotent_system(), 4, [0.0, 1e3]))
        # Once inside the kernel and once for the reference it is
        # compared against, both at ω = 0 only.
        assert len(calls) == 2


@pytest.mark.parametrize("segments_per_phase", [8, 256])
def test_defective_system_matches_mft(segments_per_phase):
    # At 8 segments per phase every row of the Jordan group takes the LU
    # branch; at 256 every row takes the series branch.
    analyzer = MftNoiseAnalyzer(_jordan_system(),
                                segments_per_phase=segments_per_phase)
    freqs = np.linspace(1e3, 40e3, 16)
    batch = solve_spectral_batch(analyzer.context, 2.0 * np.pi * freqs,
                                 analyzer._forcing_pairs())
    assert np.all(batch.ok)
    _assert_spectral_equivalent(
        analyzer.psd_sweep(freqs),
        analyzer.psd_sweep(freqs, solver="spectral-batch"))


def _stable_monodromy(n, seed, radius, skew):
    """Real ``n × n`` matrix with spectral radius ``radius``.

    An orthogonal similarity of a real quasi-triangular matrix: its
    diagonal holds real eigenvalues and rotation blocks of modulus at
    most ``radius`` (the first exactly ``radius``), and ``skew`` scales
    the strictly upper part, so large values make it strongly
    non-normal.
    """
    rng = np.random.default_rng(seed)
    t = skew * np.triu(rng.standard_normal((n, n)), 1)
    i = 0
    while i < n:
        modulus = radius if i == 0 else radius * rng.uniform()
        if i + 1 < n and rng.uniform() < 0.5:
            angle = rng.uniform(0.0, np.pi)
            t[i:i + 2, i:i + 2] = modulus * np.array(
                [[np.cos(angle), -np.sin(angle)],
                 [np.sin(angle), np.cos(angle)]])
            i += 2
        else:
            t[i, i] = modulus * rng.choice([-1.0, 1.0])
            i += 1
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ t @ q.T


class TestConditionBound:
    """One bound on ``cond(I − e^{−jωT}M₀)`` per context stands in for
    the per-frequency SVD wherever it is within the limit."""

    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           radius=st.floats(0.0, 0.999),
           skew=st.sampled_from([0.0, 0.3, 3.0, 30.0]),
           angle=st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=200, deadline=None)
    def test_bound_covers_every_unit_phase(self, n, seed, radius, skew,
                                           angle):
        monodromy = _stable_monodromy(n, seed, radius, skew)
        bound = spectral.fixed_point_condition_bound(monodromy)
        assert bound >= 1.0
        # Rounding can make a strongly non-normal M₀ numerically
        # non-contractive (its powers grow in floating point), and the
        # bound is then ∞; a normal M₀ always contracts.
        assert skew > 0.0 or bound < np.inf
        for phase in (1.0, -1.0, np.exp(1j * angle)):
            cond = np.linalg.cond(np.eye(n) - phase * monodromy)
            # The bound holds for the exact condition; the SVD reads it
            # within the rounding that certified_condition allows for
            # (at M₀ ≈ 0 the bound is 1 and the SVD reads 1 + 2 ulp).
            assert cond <= spectral.certified_condition(bound, n)

    @pytest.mark.parametrize("monodromy", [
        np.eye(3),
        np.diag([1.0 + 1e-6, 0.5]),
        np.array([[0.0, -1.0], [1.0, 0.0]]),
        np.full((2, 2), np.nan),
    ], ids=["identity", "unstable", "rotation", "nan"])
    def test_no_contraction_gives_no_bound(self, monodromy):
        assert spectral.fixed_point_condition_bound(monodromy) == np.inf

    def test_loose_bound_is_never_certified(self):
        assert spectral.certified_condition(np.inf, 4) == np.inf
        delta = 4 * CONDITION_BOUND_ROUNDING
        assert spectral.certified_condition(2.0 / delta, 4) == np.inf
        assert 1.0 < spectral.certified_condition(1.0, 4) < 1.0 + 4 * delta

    @pytest.mark.parametrize("name", ["marginal", "sc-bandpass"])
    def test_gate_matches_per_frequency_svd(self, name):
        if name == "marginal":
            system = marginal_system()
            freqs = np.array([1e-3, 0.1, 10.0, 100.0, 400.0])
        else:
            system = sc_bandpass_system().system
        context = SweepContext(system, segments_per_phase=16)
        if name != "marginal":
            freqs = np.linspace(0.03, 2.4, 12) / context.disc.period
        forcing = MftNoiseAnalyzer(system, context=context)._forcing_pairs()
        omegas = 2.0 * np.pi * freqs
        ungated = solve_spectral_batch(context, omegas, forcing)
        n = context.monodromy.shape[0]
        exact = np.array([
            condition_number(np.eye(n) - np.exp(-1j * omega
                                                * context.disc.period)
                             * context.monodromy)
            for omega in omegas])
        bound = context.condition_bound
        top = float(np.max(exact))
        assert bound >= top
        # Just below the largest condition one frequency falls back and
        # just above none does, both decided by the SVD; the production
        # limit is within the bound, which decides it alone.
        for limit, masked in ((top * (1.0 - 1e-6), True),
                              (top * (1.0 + 1e-6), False),
                              (DIRECT_SOLVE_COND_LIMIT, False)):
            batch = solve_spectral_batch(context, omegas, forcing,
                                         condition_limit=limit)
            expected = ungated.ok & ~(exact > limit)
            assert np.array_equal(batch.ok, expected)
            assert bool(np.any(~batch.ok)) == masked
            assert batch.integral.tobytes() == ungated.integral.tobytes()
            if limit == DIRECT_SOLVE_COND_LIMIT:
                assert spectral.certified_condition(bound, n) <= limit
                assert np.all(batch.conditions == bound)
            else:
                assert spectral.certified_condition(bound, n) > limit
                np.testing.assert_allclose(batch.conditions, exact,
                                           rtol=1e-12)
        assert np.all(np.isnan(ungated.conditions))


# -- widened parity battery ----------------------------------------------------

def _sc_cascade(n_stages):
    """``n_stages`` damped SC integrators in series, 4 states per stage.

    Each stage is the SC low-pass topology with unity capacitor ratios
    and a source-follower op-amp; stage ``k`` samples the output of
    stage ``k - 1``.
    """
    netlist = Netlist(f"sc-cascade-{n_stages}")
    netlist.add_voltage_source("Vin", "vin", "0", 0.0)
    previous = "vin"
    for k in range(n_stages):
        a, c, vsum, vout = f"a{k}", f"c{k}", f"vsum{k}", f"vout{k}"
        netlist.add_capacitor(f"C1_{k}", a, "0", 100e-12)
        netlist.add_switch(f"S1_{k}", previous, a, ("phi1",), ron=80.0)
        netlist.add_switch(f"S4_{k}", a, vsum, ("phi2",), ron=80.0)
        netlist.add_capacitor(f"C3_{k}", c, "0", 100e-12)
        netlist.add_switch(f"S5_{k}", c, vout, ("phi1",), ron=80.0)
        netlist.add_switch(f"S6_{k}", c, vsum, ("phi2",), ron=80.0)
        netlist.add_capacitor(f"C2_{k}", vsum, vout, 100e-12)
        add_source_follower_opamp(netlist, f"op{k}", "0", vsum, vout,
                                  unity_gain_radps=9.0e6 * np.pi,
                                  input_noise_psd=7e-7)
        previous = vout
    schedule = ClockSchedule.two_phase(4e3, duty=0.5,
                                       names=("phi1", "phi2"))
    return build_lptv_system(netlist, schedule, outputs=[previous])


#: Every built-in circuit, the charge-redistribution jump at three
#: gains (0 wipes the state, 1 is the identity jump), and a 16-state
#: cascade: builders of a ``PiecewiseLTISystem`` or a model carrying one.
PARITY_SYSTEMS = {
    "switched-rc": switched_rc_system,
    "sc-lowpass": sc_lowpass_system,
    "sc-bandpass": sc_bandpass_system,
    "sc-integrator": sc_integrator_system,
    "sample-hold": sample_hold_system,
    "ideal-sh-0": lambda: ideal_sample_hold(c_ratio=0.0),
    "ideal-sh-0.5": lambda: ideal_sample_hold(c_ratio=0.5),
    "ideal-sh-1": lambda: ideal_sample_hold(c_ratio=1.0),
    "sc-cascade-4": lambda: _sc_cascade(4),
}


def _parity_analyzer(name, segments_per_phase=16):
    clear_sweep_contexts()
    model = PARITY_SYSTEMS[name]()
    system = getattr(model, "system", model)
    return MftNoiseAnalyzer(system, segments_per_phase=segments_per_phase)


def _parity_grid(analyzer, n=12):
    """Points from near DC to beyond the clock, off the harmonics."""
    period = analyzer.context.disc.period
    return np.linspace(0.03, 2.4, n) / period


class TestParityBattery:
    """spectral-batch vs ``solver="mft"`` on every circuit shape."""

    @pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
    def test_matches_mft(self, name):
        analyzer = _parity_analyzer(name)
        freqs = _parity_grid(analyzer)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs, solver="mft"),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    @pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
    def test_attributed_rows_match_mft(self, name):
        # 1 + n_sources stacked forcing rows through one kernel call.
        analyzer = _parity_analyzer(name)
        freqs = _parity_grid(analyzer, n=6)
        reference = analyzer.psd_sweep(freqs, solver="mft",
                                       attribute_sources=True)
        stacked = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                     attribute_sources=True)
        _assert_spectral_equivalent(reference, stacked)
        rows = reference.budget.contributions
        candidate = stacked.budget.contributions
        assert np.array_equal(np.isnan(rows), np.isnan(candidate))
        finite = np.isfinite(rows)
        scale = np.max(np.abs(reference.psd[np.isfinite(reference.psd)]))
        assert np.max(np.abs(candidate[finite] - rows[finite])) <= (
            SPECTRAL_REL_TOL * scale)

    @pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
    def test_stacked_row_zero_is_bit_identical(self, name):
        analyzer = _parity_analyzer(name)
        context = analyzer.context
        omegas = 2.0 * np.pi * _parity_grid(analyzer)
        forcing = analyzer._forcing_pairs()
        rows = np.stack([forcing] + [
            context.source_forcing_pairs(analyzer._l_row, s)
            for s in range(context.n_sources)])
        stacked = solve_spectral_batch(context, omegas, rows)
        # Every row, not only row 0: corner sweeps stack the kernel rows
        # of a whole dynamics group into one call and slice them back.
        for k, row in enumerate(rows):
            single = solve_spectral_batch(context, omegas, row)
            assert stacked.integral[k].tobytes() == \
                single.integral.tobytes(), f"row {k}"
            assert stacked.v0[k].tobytes() == single.v0.tobytes(), (
                f"row {k}")
            assert np.array_equal(stacked.ok, single.ok)

    # At production density each clock phase is one segment group even
    # though its float segment lengths differ by ulps.
    @pytest.mark.parametrize("name", ["sc-cascade-4", "sc-lowpass"])
    def test_matches_mft_at_production_density(self, name):
        analyzer = _parity_analyzer(name, segments_per_phase=64)
        freqs = _parity_grid(analyzer)
        _assert_spectral_equivalent(
            analyzer.psd_sweep(freqs, solver="mft"),
            analyzer.psd_sweep(freqs, solver="spectral-batch"))

    @pytest.mark.parametrize("name", ["sc-cascade-4", "sc-lowpass"])
    def test_mft_matches_reference_at_production_density(self, name):
        # The reference keys its step integrals on each segment's own
        # duration, so it shares nothing with the grouped fast solve.
        analyzer = _parity_analyzer(name, segments_per_phase=64)
        context = analyzer.context
        forcing = analyzer._forcing_pairs()
        for omega in 2.0 * np.pi * _parity_grid(analyzer):
            fast = context.solve_shifted(omega, forcing)
            reference = periodic_steady_state(context.disc, omega, forcing)
            for got, want in ((fast.integral, reference.integral),
                              (fast.pre, reference.pre)):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


# -- the group-sum period integral ---------------------------------------------

def _per_segment_integral(a, h, omega, post, pre, f0, f1, resolvent):
    """Reference: the per-segment period integral, summed over a group.

    ``post``/``pre``/``f0``/``f1`` are ``(S, R, n)`` segment-start and
    segment-end states and forcing endpoints; one frequency.
    """
    a_w = a.astype(complex) - 1j * omega * np.eye(a.shape[0])
    total = np.zeros(post.shape[1:], dtype=complex)
    for k in range(post.shape[0]):
        if resolvent:
            rhs = pre[k] - post[k] - 0.5 * h * (f0[k] + f1[k])
            total += np.linalg.solve(a_w, rhs.T).T
        else:
            d_start = post[k] @ a_w.T + f0[k]
            d_end = pre[k] @ a_w.T + f1[k]
            total += (0.5 * h * (post[k] + pre[k])
                      + h * h / 12.0 * (d_start - d_end))
    return total


class TestGroupPeriodIntegral:
    """One evaluation on per-group sums ≡ the per-segment formula."""

    N_SEG, N_ROWS, N = 9, 3, 4

    def _group(self, rng, h, n_freq):
        a = random_stable_matrix(rng, self.N) / h
        shape = (self.N_SEG, self.N_ROWS, n_freq, self.N)
        post = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pre = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f0 = rng.standard_normal((self.N_SEG, self.N_ROWS, self.N))
        f1 = rng.standard_normal((self.N_SEG, self.N_ROWS, self.N))
        return a, post, pre, f0, f1

    def _norm_h(self, a, h, omegas):
        eye = np.eye(a.shape[0])
        return np.array([np.linalg.norm(a - 1j * w * eye, 1) * h
                         for w in omegas])

    def _reference(self, a, h, omegas, post, pre, f0, f1, resolvent):
        out = np.empty(post.shape[1:], dtype=complex)
        for fi, omega in enumerate(omegas):
            out[:, fi] = _per_segment_integral(
                a, h, omega, post[:, :, fi], pre[:, :, fi], f0, f1,
                resolvent[fi])
        return out

    def _from_sums(self, a, h, omegas, post, pre, f0, f1):
        start, end = post.sum(axis=0), pre.sum(axis=0)
        return group_period_integral(
            a, h, omegas, end - start, f0.sum(axis=0), f1.sum(axis=0),
            self._norm_h(a, h, omegas),
            lambda rows: (start[:, rows], end[:, rows]))

    def _assert_close(self, got, want):
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_resolvent_branch(self, seed):
        rng = np.random.default_rng(seed)
        h = 1e-4
        omegas = 2.0 * np.pi * np.array([10.0, 3e3, 4e4])
        a, post, pre, f0, f1 = self._group(rng, h, omegas.size)
        norm_h = self._norm_h(a, h, omegas)
        assert np.all(norm_h > RESOLVENT_NORM_THRESHOLD)
        self._assert_close(
            self._from_sums(a, h, omegas, post, pre, f0, f1),
            self._reference(a, h, omegas, post, pre, f0, f1,
                            np.ones(omegas.size, dtype=bool)))

    @pytest.mark.parametrize("seed", range(4))
    def test_trapezoid_branch(self, seed):
        rng = np.random.default_rng(seed)
        h = 1e-4
        a, post, pre, f0, f1 = self._group(rng, h, 3)
        a = a * (0.05 / (np.linalg.norm(a, 1) * h))
        omegas = 2.0 * np.pi * np.array([1.0, 20.0, 100.0])
        assert np.all(self._norm_h(a, h, omegas)
                      <= RESOLVENT_NORM_THRESHOLD)
        self._assert_close(
            self._from_sums(a, h, omegas, post, pre, f0, f1),
            self._reference(a, h, omegas, post, pre, f0, f1,
                            np.zeros(omegas.size, dtype=bool)))

    def test_failed_resolvent_takes_trapezoid(self, monkeypatch):
        # A mixed block: two frequencies below the threshold, four above
        # it of which the resolvent solve NaN-fails two.  Exactly the
        # below-threshold and the failed frequencies take the trapezoid.
        rng = np.random.default_rng(11)
        h = 1e-4
        a, post, pre, f0, f1 = self._group(rng, h, 6)
        a = a * (0.3 / (np.linalg.norm(a, 1) * h))
        omegas = 2.0 * np.pi * np.array([1.0, 50.0, 2e3, 3e3, 5e3, 8e3])
        norm_h = self._norm_h(a, h, omegas)
        assert list(norm_h > RESOLVENT_NORM_THRESHOLD) == [
            False, False, True, True, True, True]
        failing = {omegas[2], omegas[4]}

        def failing_solve(stack, rhs, *, context=""):
            x, ok = batched_solve(stack, rhs, context=context)
            # The stack is A − jωI with A real: recover ω per member.
            bad = np.isin(-stack[:, 0, 0].imag, list(failing))
            x[bad] = np.nan
            return x, ok & ~bad

        monkeypatch.setattr(spectral, "batched_solve", failing_solve)
        got = self._from_sums(a, h, omegas, post, pre, f0, f1)
        trapezoid = [True, True, True, False, True, False]
        trapezoid_ref = self._reference(a, h, omegas, post, pre, f0, f1,
                                        np.zeros(6, dtype=bool))
        resolvent_ref = self._reference(a, h, omegas, post, pre, f0, f1,
                                        np.ones(6, dtype=bool))
        for fi, use_trapezoid in enumerate(trapezoid):
            want = trapezoid_ref if use_trapezoid else resolvent_ref
            other = resolvent_ref if use_trapezoid else trapezoid_ref
            self._assert_close(got[:, fi], want[:, fi])
            assert not np.allclose(got[:, fi], other[:, fi])


# -- the default ω-block -------------------------------------------------------

def _block_analyzer(name):
    """A parity system, the defective Jordan system, or a rescued sweep."""
    if name == "jordan":
        return MftNoiseAnalyzer(_jordan_system(), segments_per_phase=8)
    if name == "rescued":
        # A sub-unity condition limit rejects every batched solve, so
        # every finite frequency is rescued through the fallback chain.
        policy = FallbackPolicy(condition_limit=0.5,
                                enable_brute_force=False)
        return MftNoiseAnalyzer(switched_rc_system(), segments_per_phase=16,
                                fallback=policy)
    return _parity_analyzer(name)


def _sweep_record(result):
    """What a chunking must leave bit-identical: values, NaN masks
    (inside the value bytes), budget rows and failure records."""
    budget = result.info["budget"]
    return (result.psd.tobytes(),
            None if budget is None else budget.contributions.tobytes(),
            _failure_records(result))


class TestDefaultBlock:
    """A default spectral-batch sweep is one ω-block over the whole grid,
    split only past :data:`~repro.mft.executor.SPECTRAL_STACK_CAP_BYTES`,
    and every chunking gives the same bits."""

    # switched-rc mixes the series and LU step-integral regimes in one
    # block, the ideal S/H has jumps, the Jordan system a defective
    # group, and "rescued" runs every point through the fallback chain.
    @pytest.mark.parametrize("attribute", [False, True])
    @pytest.mark.parametrize("name", ["switched-rc", "sc-lowpass",
                                      "sc-cascade-4", "ideal-sh-0.5",
                                      "jordan", "rescued"])
    def test_default_block_matches_every_chunk_size(self, name, attribute):
        analyzer = _block_analyzer(name)
        freqs = _parity_grid(analyzer, n=24)
        freqs[[3, 17]] = [np.nan, np.inf]
        default = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                     attribute_sources=attribute)
        assert default.info["executor"]["n_chunks"] == 1
        assert len(_failure_records(default)) >= 2
        for chunk in (7, 64):
            chunked = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                         chunk_size=chunk,
                                         attribute_sources=attribute)
            assert _sweep_record(chunked) == _sweep_record(default), (
                f"chunk_size={chunk}")
        single = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    chunk_size=1,
                                    attribute_sources=attribute)
        if analyzer.context.structure.n_states > 2:
            assert _sweep_record(single) == _sweep_record(default)
        else:
            # A one-frequency block of a system with at most two states
            # makes numpy's complex multiplies one-element loops, which
            # round without the fused SIMD kernel: about an ulp apart.
            _assert_spectral_equivalent(default, single)
            finite = np.isfinite(default.psd)
            scale = np.max(np.abs(default.psd[finite]))
            assert np.max(np.abs(single.psd[finite]
                                 - default.psd[finite])) <= 1e-15 * scale

    @pytest.mark.parametrize("per_block", [5, 1])
    def test_cap_splits_the_sweep_with_identical_values(self, monkeypatch,
                                                        per_block):
        analyzer = _parity_analyzer("sc-lowpass")
        freqs = _parity_grid(analyzer, n=24)
        whole = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                   attribute_sources=True)
        context = analyzer.context
        n_seg, n = context.structure.n_segments, context.structure.n_states
        row_bytes = (1 + context.n_sources) * n_seg * n * 16
        # The cap fits ``per_block`` frequencies (and not one more); a
        # cap below one frequency's stack still sweeps one at a time.
        cap = per_block * row_bytes + row_bytes // 2 if per_block > 1 \
            else row_bytes // 2
        monkeypatch.setattr(executor, "SPECTRAL_STACK_CAP_BYTES", cap)
        split = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                   attribute_sources=True)
        meta = split.info["executor"]
        assert meta["chunk_size"] == per_block
        assert meta["n_chunks"] == -(-freqs.size // per_block)
        assert _sweep_record(split) == _sweep_record(whole)

    def test_cap_counts_every_stacked_row(self):
        # An attributed sweep stacks 1 + n_sources kernel rows, so its
        # block holds proportionally fewer frequencies.
        context = _parity_analyzer("sc-lowpass").context
        n_seg, n = context.structure.n_segments, context.structure.n_states
        cap = executor.SPECTRAL_STACK_CAP_BYTES
        big = 10 * cap // (n_seg * n * 16)
        assert executor.spectral_block_size(context, big, 1) == (
            cap // (n_seg * n * 16))
        assert executor.spectral_block_size(context, big, 3) == (
            cap // (3 * n_seg * n * 16))
        assert executor.spectral_block_size(context, 5, 3) == 5
        assert executor.spectral_block_size(context, 0, 1) == 1

    def test_executor_reports_the_block_actually_used(self, lowpass_model):
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(lowpass_model.system,
                                    segments_per_phase=64)
        freqs = np.linspace(100.0, 12e3, 256)
        meta = analyzer.psd_sweep(
            freqs, solver="spectral-batch").info["executor"]
        assert (meta["chunk_size"], meta["n_chunks"]) == (256, 1)
        meta = analyzer.psd_sweep(freqs[:24], solver="spectral-batch",
                                  chunk_size=7).info["executor"]
        assert (meta["chunk_size"], meta["n_chunks"]) == (7, 4)
        meta = analyzer.psd_sweep(freqs[:24]).info["executor"]
        assert (meta["chunk_size"], meta["n_chunks"]) == (8, 3)
        for solver in ("spectral-batch", "mft"):
            empty = analyzer.psd_sweep(np.empty(0), solver=solver)
            assert empty.psd.size == 0
            assert empty.info["executor"] == {
                "solver": None if solver == "mft" else solver,
                "chunk_size": 0, "n_chunks": 0, "n_chunks_skipped": 0}

    def test_default_block_is_one_budget_decision(self, first_chunk_budget):
        analyzer = _parity_analyzer("switched-rc")
        freqs = _parity_grid(analyzer, n=6)
        result = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    budget=first_chunk_budget)
        assert first_chunk_budget.n_checks == 1
        assert np.all(np.isfinite(result.psd))
        assert result.info["executor"]["n_chunks_skipped"] == 0

    def test_explicit_chunks_still_stop_after_a_spent_budget(
            self, first_chunk_budget):
        analyzer = _parity_analyzer("switched-rc")
        freqs = _parity_grid(analyzer, n=6)
        result = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    chunk_size=2, budget=first_chunk_budget)
        assert np.all(np.isfinite(result.psd[:2]))
        assert np.all(np.isnan(result.psd[2:]))
        assert [(f.index, f.stage) for f in result.info["failures"]] == [
            (k, "budget") for k in range(2, freqs.size)]
        meta = result.info["executor"]
        assert (meta["n_chunks"], meta["n_chunks_skipped"]) == (3, 2)

    def test_unsorted_grid_scatters_to_the_same_bits(self):
        # Shuffled, the switched-RC grid interleaves the series and LU
        # regimes inside the block, so the LU products are scattered
        # instead of written in place: each frequency's value must not
        # depend on its position.
        analyzer = _parity_analyzer("switched-rc")
        freqs = _parity_grid(analyzer, n=24)
        order = np.random.default_rng(5).permutation(freqs.size)
        in_order = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                      attribute_sources=True)
        shuffled = analyzer.psd_sweep(freqs[order], solver="spectral-batch",
                                      attribute_sources=True)
        assert shuffled.psd.tobytes() == in_order.psd[order].tobytes()
        assert (shuffled.budget.contributions.tobytes()
                == in_order.budget.contributions[:, order].tobytes())


# -- run propagation -----------------------------------------------------------

class _GivenGrid:
    """A system whose discretization is handed in: a hand-edited grid."""

    def __init__(self, disc, output_matrix):
        self._disc = disc
        self.output_matrix = output_matrix

    def discretize(self, _segments_per_phase):
        return self._disc


def _mid_phase_jump_system():
    """The SC low-pass at 16 segments per phase with a jump after
    segment 5 of its first phase, which splits that phase's run."""
    system = sc_lowpass_system().system
    disc = system.discretize(16)
    n = disc.n_states
    segments = list(disc.segments)
    jump = 0.5 * np.eye(n) + 0.1 * np.roll(np.eye(n), 1, axis=1)
    segments[5] = replace(segments[5], jump=jump)
    return _GivenGrid(replace(disc, segments=segments),
                      system.output_matrix)


def _sampled_system():
    """Two states and two noise sources with ``A(t)`` sampled per
    segment: every segment is its own group, every run one segment."""
    return SampledLPTVSystem(
        a_of_t=lambda t: np.array([[-1.0 - 0.5 * np.sin(t), 0.3],
                                   [-0.2, -2.0 + 0.4 * np.cos(t)]]),
        b_of_t=lambda t: np.array([[1.0, 0.0],
                                   [0.3, 0.5 + 0.2 * np.sin(t)]]),
        period=2.0 * np.pi, n_states=2,
        output_matrix=np.array([[1.0, 0.0]]))


#: One run per clock phase (SC low-pass, 16-state cascade), trapezoid
#: groups and a jump on the period's last segment (ideal S/H), a run
#: split by a jump in mid-phase, and one-segment runs stepping a
#: non-C-ordered ``Φ`` (sampled system).
RUN_SYSTEMS = {
    "sc-lowpass": lambda: sc_lowpass_system().system,
    "sc-cascade-4": lambda: _sc_cascade(4).system,
    "ideal-sh-0.5": lambda: ideal_sample_hold(c_ratio=0.5),
    "mid-phase-jump": _mid_phase_jump_system,
    "sampled": _sampled_system,
}


def _run_context(name):
    return SweepContext(RUN_SYSTEMS[name](), segments_per_phase=16)


class TestRunPropagation:
    """The kernel's pass over runs ≡ the per-segment trace of
    ``solve_shifted``, to the exact-reorder bound."""

    @pytest.mark.parametrize("attribute", [False, True])
    @pytest.mark.parametrize("name", sorted(RUN_SYSTEMS))
    def test_kernel_matches_solve_shifted(self, name, attribute):
        context = _run_context(name)
        l_row = np.asarray(context.system.output_matrix)[0]
        rows = [context.forcing_pairs(l_row)]
        if attribute:
            rows += [context.source_forcing_pairs(l_row, s)
                     for s in range(context.n_sources)]
        omegas = (2.0 * np.pi * np.linspace(0.03, 2.4, 9)
                  / context.disc.period)
        batch = solve_spectral_batch(context, omegas, np.stack(rows))
        assert np.all(batch.ok)
        for r, row in enumerate(rows):
            for f, omega in enumerate(omegas):
                reference = context.solve_shifted(omega, row)
                for got, want in ((batch.integral[r, f],
                                   reference.integral),
                                  (batch.v0[r, f], reference.pre[0])):
                    scale = np.max(np.abs(want))
                    assert np.max(np.abs(got - want)) <= 1e-12 * scale, (
                        f"row {r}, omega {omega:.6g}")

    @pytest.mark.parametrize("name", sorted(RUN_SYSTEMS))
    def test_solve_shifted_matches_reference(self, name):
        # The reference steps segment by segment and shares no run code.
        context = _run_context(name)
        forcing = context.forcing_pairs(
            np.asarray(context.system.output_matrix)[0])
        for omega in (2.0 * np.pi * np.linspace(0.03, 2.4, 5)
                      / context.disc.period):
            fast = context.solve_shifted(omega, forcing)
            reference = periodic_steady_state(context.disc, omega, forcing)
            for got, want in ((fast.integral, reference.integral),
                              (fast.pre, reference.pre)):
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_trapezoid_groups_are_exercised(self):
        # The ideal S/H's hold phase (A = 0) takes the trapezoid at
        # every frequency of the battery.
        context = _run_context("ideal-sh-0.5")
        omegas = (2.0 * np.pi * np.linspace(0.03, 2.4, 9)
                  / context.disc.period)
        hold = context.structure.groups[1]
        norm_h = np.abs(omegas) * hold.duration
        assert np.all(norm_h <= RESOLVENT_NORM_THRESHOLD)

    @pytest.mark.parametrize("name", sorted(RUN_SYSTEMS))
    def test_pass_over_runs_is_the_monodromy(self, name):
        # Unit phases and no forcing: the pass maps each row-vector
        # state through the period, the final jump included.
        context = _run_context(name)
        struct = context.structure
        n = struct.n_states
        count = len(struct.runs)
        final = propagate_runs(struct, [1.0] * count,
                               [np.zeros((n, n))] * count, np.eye(n))[2]
        monodromy = context.monodromy
        assert np.max(np.abs(final - monodromy.T)) <= (
            1e-12 * np.max(np.abs(monodromy)))


class TestRunSplitter:
    """Runs: maximal stretches of one group's consecutive segments with
    no jump before the last."""

    @staticmethod
    def _runs(struct):
        return [(run.group, run.start, run.stop) for run in struct.runs]

    def test_group_change_ends_a_run(self):
        struct = _run_context("sc-lowpass").structure
        assert self._runs(struct) == [(0, 0, 16), (1, 16, 32)]
        assert [group.runs for group in struct.groups] == [[0], [1]]

    def test_jump_ends_a_run(self):
        struct = _run_context("mid-phase-jump").structure
        assert self._runs(struct) == [(0, 0, 6), (0, 6, 16), (1, 16, 32)]
        assert [group.runs for group in struct.groups] == [[0, 1], [2]]
        # A group's stack holds the powers of its longest run.
        assert [stack.shape[1] for stack in struct.powers] == [10, 16]

    def test_jump_on_the_last_segment(self):
        struct = _run_context("ideal-sh-0.5").structure
        assert self._runs(struct) == [(0, 0, 16), (1, 16, 32)]
        assert np.nonzero(struct.has_jump)[0].tolist() == [31]

    def test_sampled_runs_are_one_segment_long(self):
        context = _run_context("sampled")
        struct = context.structure
        assert self._runs(struct) == [(k, k, k + 1) for k in range(16)]
        assert [stack.shape for stack in struct.powers] == [(2, 1, 2)] * 16
        assert not context.disc.segments[0].phi.flags.c_contiguous

    def test_power_stack_holds_reversed_powers(self):
        struct = _run_context("sc-lowpass").structure
        for group, stack in zip(struct.groups, struct.powers):
            length = stack.shape[1]
            for q in (0, length // 2, length - 1):
                want = np.linalg.matrix_power(group.phi, length - 1 - q)
                assert np.max(np.abs(stack[:, q, :].T - want)) <= (
                    1e-13 * np.max(np.abs(want)))
