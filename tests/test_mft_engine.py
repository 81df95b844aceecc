"""The MFT steady-state PSD engine: agreements, limits, invariants."""

import numpy as np
import pytest

from repro.analysis import NoiseAnalysis
from repro.baselines.lti import lti_noise_psd, lti_output_variance
from repro.baselines.rice import rice_switched_rc_psd
from repro.errors import ReproError
from repro.lptv.system import lti_phase_system
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise.snr import integrated_noise_power


class TestLtiLimit:
    def test_matches_transfer_function_exactly(self, rng):
        from conftest import random_stable_matrix
        a = random_stable_matrix(rng, 4)
        b = rng.standard_normal((4, 2))
        l_row = rng.standard_normal(4)
        sys = lti_phase_system(a, b, period=0.7,
                               output_matrix=l_row[None, :])
        freqs = np.array([0.01, 0.3, 2.0, 9.0])
        psd = MftNoiseAnalyzer(sys, segments_per_phase=8).psd(freqs).psd
        ref = lti_noise_psd(a, b, l_row, freqs)
        assert np.allclose(psd, ref, rtol=1e-9, atol=0.0)

    def test_grid_density_immaterial_for_lti(self, rng):
        from conftest import random_stable_matrix
        a = random_stable_matrix(rng, 3)
        b = rng.standard_normal((3, 1))
        sys = lti_phase_system(a, b, period=1.0)
        psd_coarse = MftNoiseAnalyzer(sys, segments_per_phase=3).psd_at(0.5)
        psd_fine = MftNoiseAnalyzer(sys, segments_per_phase=96).psd_at(0.5)
        assert psd_coarse == pytest.approx(psd_fine, rel=1e-10)

    def test_parseval_total_power(self, rng):
        # Integral of the double-sided PSD over all f equals variance;
        # integrate numerically over a wide band.
        from conftest import random_stable_matrix
        a = random_stable_matrix(rng, 2) * 5.0
        b = rng.standard_normal((2, 1))
        l_row = np.array([1.0, 0.0])
        sys = lti_phase_system(a, b, period=1.0,
                               output_matrix=l_row[None, :])
        an = MftNoiseAnalyzer(sys, segments_per_phase=8)
        freqs = np.linspace(0.0, 60.0, 1200)
        spectrum = an.psd(freqs)
        power = integrated_noise_power(spectrum)
        assert power == pytest.approx(lti_output_variance(a, b, l_row),
                                      rel=2e-2)


class TestSwitchedRc:
    def test_matches_rice_closed_form(self, rc_system, rc_params):
        freqs = np.array([100.0, 1e3, 5e3, 12e3, 31e3, 77e3])
        psd = MftNoiseAnalyzer(rc_system, segments_per_phase=96).psd(freqs).psd
        assert np.allclose(psd, rice_switched_rc_psd(rc_params, freqs),
                           rtol=2e-4, atol=0.0)

    def test_duty_cycle_sweep_matches_rice(self):
        from repro.circuits import SwitchedRcParams, switched_rc_system
        freqs = np.array([500.0, 6e3, 45e3])
        for duty in (0.1, 0.5, 0.9):
            p = SwitchedRcParams(resistance=10e3, capacitance=1e-9,
                                 period=5e-5, duty=duty)
            psd = MftNoiseAnalyzer(switched_rc_system(p), segments_per_phase=96).psd(freqs)
            assert np.allclose(psd.psd, rice_switched_rc_psd(p, freqs),
                               rtol=3e-4, atol=0.0), duty

    def test_instantaneous_psd_averages_to_psd(self, rc_system):
        an = MftNoiseAnalyzer(rc_system, segments_per_phase=64)
        inst = an.instantaneous_psd(3e3)
        assert inst.average() == pytest.approx(an.psd_at(3e3), rel=1e-3)

    def test_psd_even_in_frequency(self, rc_system):
        an = MftNoiseAnalyzer(rc_system, segments_per_phase=32)
        assert an.psd_at(-4e3) == pytest.approx(an.psd_at(4e3),
                                                rel=1e-10)

    def test_zero_frequency_finite(self, rc_system):
        assert np.isfinite(MftNoiseAnalyzer(rc_system, segments_per_phase=32).psd_at(0.0))

    def test_result_metadata(self, rc_system):
        result = MftNoiseAnalyzer(rc_system, segments_per_phase=16).psd(
            [1e3, 2e3])
        assert result.method == "mft"
        assert result.info["segments"] == 32
        assert result.info["runtime_seconds"] >= 0.0

    def test_cross_contributions_sum_to_psd(self, lowpass_model):
        an = MftNoiseAnalyzer(lowpass_model.system, segments_per_phase=24)
        contributions = an.cross_spectral_contributions(2e3)
        l_row = lowpass_model.system.output_matrix[0]
        assert float(l_row @ contributions) == pytest.approx(
            an.psd_at(2e3), rel=1e-10)

    def test_covariance_cached(self, rc_system):
        an = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        assert an.covariance is an.covariance

    def test_requires_discretizable_system(self):
        with pytest.raises(ReproError):
            MftNoiseAnalyzer(object(), segments_per_phase=8)


class TestGridConvergence:
    def test_psd_accurate_even_on_coarse_grids(self, rc_system,
                                               rc_params):
        # With constant covariance forcing (the switched RC steady
        # state) every ingredient of the engine — propagators, forcing
        # integrals, period quadrature — is exact, so even 4 segments
        # per phase must agree with the closed form to near rounding.
        freq = 31e3
        ref = rice_switched_rc_psd(rc_params, [freq])[0]
        for spp in (4, 8, 16):
            psd = MftNoiseAnalyzer(rc_system, segments_per_phase=spp).psd_at(freq)
            assert abs(psd - ref) / ref < 1e-5, spp

    def test_psd_converges_for_varying_forcing(self):
        # The SC low-pass has a genuinely time-varying covariance, so
        # the piecewise-linear forcing interpolation error shows up and
        # must decay with grid refinement.
        from repro.circuits import sc_lowpass_system
        system = sc_lowpass_system().system
        ref = MftNoiseAnalyzer(system, segments_per_phase=512).psd_at(7.5e3)
        errors = [abs(MftNoiseAnalyzer(system, segments_per_phase=spp).psd_at(7.5e3) - ref)
                  for spp in (16, 64, 256)]
        assert errors[0] > errors[1] > errors[2]


class TestOneAnalyzerMode:
    """Every analyzer draws from a sweep context; there is no cache flag."""

    @pytest.mark.parametrize("build", [
        lambda system: MftNoiseAnalyzer(system, cache=False),
        lambda system: NoiseAnalysis(system, cache=False),
    ], ids=["analyzer", "facade"])
    def test_cache_keyword_rejected(self, rc_system, build):
        with pytest.raises(TypeError, match="cache"):
            build(rc_system)

    def test_fresh_context_matches_registry_context(self, rc_system):
        from repro.mft.context import SweepContext, clear_sweep_contexts

        freqs = np.linspace(100.0, 4e4, 6)
        clear_sweep_contexts()
        shared = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        fresh = MftNoiseAnalyzer(rc_system,
                                 context=SweepContext(rc_system, 16))
        assert fresh.context is not shared.context
        np.testing.assert_array_equal(fresh.psd(freqs).psd,
                                      shared.psd(freqs).psd)
