"""Cross-solver differential tests for band metrics + kT/C calibration.

Satellite: the metrics layer must report the *same physics* whichever
engine produced the PSD.  The MFT and spectral-batch paths solve the
same discretized system, so their band metrics agree to solver rounding
(<= 1e-9 relative); the brute-force transient baseline discretizes time
independently and converges to ``tol_db``, so it agrees to a few
percent.  The absolute anchor is Enz's switched-RC result: the periodic
output variance of the track-and-hold is exactly ``kT/C`` (the hold
phase preserves the variance the track phase relaxes to), which pins
the integrated-band metrics to a closed-form number no solver shares
code with.
"""

import numpy as np
import pytest

from repro.analysis import NoiseAnalysis
from repro.circuits import (
    SampleHoldParams,
    SwitchedRcParams,
    sample_hold_system,
    switched_rc_system,
)
from repro.metrics import integrated_noise_power, rms_noise, snr, spot_noise
from repro.mft.context import clear_sweep_contexts

#: mft vs spectral-batch: same discretization, different kernel.
SOLVER_REL_TOL = 1e-9
#: brute force converges to tol_db=0.5 -> ~12% worst case; observed ~%.
BRUTE_FORCE_REL_TOL = 0.12


@pytest.fixture(autouse=True)
def _fresh_contexts():
    clear_sweep_contexts()
    yield
    clear_sweep_contexts()


@pytest.fixture(scope="module")
def sweeps():
    """One 16-point switched-RC sweep per solver, computed once."""
    clear_sweep_contexts()
    analysis = NoiseAnalysis(switched_rc_system(),
                             segments_per_phase=32)
    period = analysis.system.period
    freqs = np.linspace(0.02 / period, 0.40 / period, 16)
    return {
        "mft": analysis.psd(freqs),
        "spectral-batch": analysis.psd(freqs, solver="spectral-batch"),
        "brute-force": analysis.psd(freqs, solver="brute-force",
                                    tol_db=0.5),
    }


def band(result):
    return float(result.frequencies[1]), float(result.frequencies[-2])


class TestCrossSolverMetrics:
    def test_band_power_agrees(self, sweeps):
        lo, hi = band(sweeps["mft"])
        reference = integrated_noise_power(sweeps["mft"], lo, hi).expect()
        spectral = integrated_noise_power(
            sweeps["spectral-batch"], lo, hi).expect()
        brute = integrated_noise_power(
            sweeps["brute-force"], lo, hi).expect()
        assert spectral == pytest.approx(reference, rel=SOLVER_REL_TOL)
        assert brute == pytest.approx(reference,
                                      rel=BRUTE_FORCE_REL_TOL)

    def test_rms_and_snr_agree(self, sweeps):
        lo, hi = band(sweeps["mft"])
        p_signal = 0.5
        reference_rms = rms_noise(sweeps["mft"], lo, hi).expect()
        reference_snr = snr(sweeps["mft"], p_signal, lo, hi).expect()
        for name, rel in [("spectral-batch", SOLVER_REL_TOL),
                          ("brute-force", BRUTE_FORCE_REL_TOL)]:
            assert rms_noise(sweeps[name], lo, hi).expect() == (
                pytest.approx(reference_rms, rel=rel))
            # dB of a ratio: compare absolutely, scaled from rel.
            assert snr(sweeps[name], p_signal, lo, hi).expect() == (
                pytest.approx(reference_snr,
                              abs=10 * np.log10(1.0 + rel) + 1e-12))

    def test_spot_noise_agrees(self, sweeps):
        lo, hi = band(sweeps["mft"])
        f_mid = 0.5 * (lo + hi)
        reference = spot_noise(sweeps["mft"], f_mid).expect()
        assert spot_noise(sweeps["spectral-batch"], f_mid).expect() == (
            pytest.approx(reference, rel=SOLVER_REL_TOL))
        assert spot_noise(sweeps["brute-force"], f_mid).expect() == (
            pytest.approx(reference, rel=BRUTE_FORCE_REL_TOL))

    def test_budget_band_powers_sum_to_total(self):
        # integrated() per source + the total band power are the same
        # trapezoid over conserved samples, so they sum to rounding.
        analysis = NoiseAnalysis(sample_hold_system(),
                                 segments_per_phase=32)
        period = analysis.system.period
        freqs = np.linspace(0.02 / period, 0.40 / period, 16)
        result = analysis.psd(freqs, attribute_sources=True)
        lo, hi = band(result)
        total = integrated_noise_power(result, lo, hi).expect()
        per_source = result.budget.integrated(lo, hi)
        assert per_source.sum() == pytest.approx(total, rel=1e-12)

    def test_sample_hold_band_split_follows_resistance(self):
        # 1 kΩ source resistor vs 200 Ω switch: thermal contributions
        # divide 5:1 in any band (both see the same transfer function).
        params = SampleHoldParams()
        assert params.r_source / params.r_switch == 5.0
        analysis = NoiseAnalysis(sample_hold_system(params),
                                 segments_per_phase=32)
        period = analysis.system.period
        freqs = np.linspace(0.02 / period, 0.40 / period, 16)
        budget = analysis.psd(freqs, attribute_sources=True).budget
        powers = dict(zip(budget.labels, budget.integrated()))
        assert powers["Rs:thermal"] / powers["S1:thermal"] == (
            pytest.approx(5.0, rel=1e-6))


class TestKtcCalibration:
    """Enz-style closed-form anchor: switched-RC variance is kT/C."""

    def test_output_variance_matches_ktc(self, rc_system, rc_params):
        analysis = NoiseAnalysis(rc_system, segments_per_phase=32)
        assert analysis.average_output_variance() == pytest.approx(
            rc_params.ktc_variance, rel=1e-6)

    def test_wideband_metric_approaches_ktc(self, rc_system, rc_params):
        # 2 * integral_0^F S df -> kT/C as F grows; at F = 10 f_clk the
        # tail still holds a few percent, so gate loosely from below.
        analysis = NoiseAnalysis(rc_system, segments_per_phase=32)
        f_clk = 1.0 / analysis.system.period
        freqs = np.linspace(0.0, 10.0 * f_clk, 400)
        result = analysis.psd(freqs)
        power = integrated_noise_power(result).expect()
        ktc = rc_params.ktc_variance
        assert power == pytest.approx(ktc, rel=0.10)
        assert power < ktc * (1.0 + 1e-9), "band cannot exceed variance"

    def test_attributed_wideband_power_is_all_one_source(self, rc_system,
                                                         rc_params):
        # The switched RC has a single thermal source, so its full band
        # budget is trivially 100% one row — and that row carries kT/C.
        analysis = NoiseAnalysis(rc_system, segments_per_phase=32)
        f_clk = 1.0 / analysis.system.period
        freqs = np.linspace(0.0, 10.0 * f_clk, 400)
        budget = analysis.psd(freqs, attribute_sources=True).budget
        (label, power, fraction), = budget.ranked()
        assert fraction == pytest.approx(1.0, abs=1e-12)
        assert power == pytest.approx(rc_params.ktc_variance, rel=0.10)

    def test_ktc_depends_only_on_capacitance(self):
        # The calibration identity: R sets the bandwidth, C alone sets
        # the total power. Doubling R must leave the variance at kT/C.
        base = NoiseAnalysis(
            switched_rc_system(SwitchedRcParams()),
            segments_per_phase=32).average_output_variance()
        double_r = NoiseAnalysis(
            switched_rc_system(SwitchedRcParams(resistance=20e3)),
            segments_per_phase=32).average_output_variance()
        assert double_r == pytest.approx(base, rel=1e-6)
        assert base == pytest.approx(SwitchedRcParams().ktc_variance,
                                     rel=1e-6)
