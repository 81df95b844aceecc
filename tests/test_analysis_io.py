"""High-level NoiseAnalysis, spectrum comparisons, and IO helpers."""

import numpy as np
import pytest

from repro.analysis.api import NoiseAnalysis, compare_spectra
from repro.analysis.spectrum import SpectrumComparison
from repro.errors import ReproError
from repro.io.asciiplot import ascii_plot
from repro.io.csvout import write_csv, write_psd_csv
from repro.io.tables import format_table
from repro.noise.result import PsdResult


class TestNoiseAnalysisFacade:
    def test_accepts_model_and_system(self, lowpass_model, rc_system):
        a1 = NoiseAnalysis(lowpass_model, segments_per_phase=8)
        a2 = NoiseAnalysis(rc_system, segments_per_phase=8)
        assert a1.system is lowpass_model.system
        assert a2.model is None

    def test_rejects_garbage(self):
        with pytest.raises(ReproError):
            NoiseAnalysis(42)

    def test_psd_engines_agree(self, rc_system):
        analysis = NoiseAnalysis(rc_system, segments_per_phase=32)
        fast = analysis.psd([5e3]).psd[0]
        slow = analysis.psd([5e3], solver="brute-force", tol_db=0.02,
                            window_periods=8).psd[0]
        assert slow == pytest.approx(fast, rel=0.03)

    def test_convergence_trace(self, rc_system):
        trace = NoiseAnalysis(rc_system, segments_per_phase=16).convergence_trace(
            3e3, tol_db=0.2)
        assert trace.converged
        assert trace.frequency == 3e3

    def test_output_variance_and_snr(self, rc_system, rc_params):
        analysis = NoiseAnalysis(rc_system, segments_per_phase=32)
        assert analysis.average_output_variance() == pytest.approx(
            rc_params.ktc_variance, rel=1e-6)
        snr = analysis.snr(signal_power=1.0)
        assert snr == pytest.approx(
            10 * np.log10(1.0 / rc_params.ktc_variance), rel=1e-6)

    def test_snr_band_integrated(self, rc_system):
        analysis = NoiseAnalysis(rc_system, segments_per_phase=32)
        freqs = np.linspace(0.0, 200e3, 400)
        snr_band = analysis.snr(1.0, f_low=0.0, f_high=200e3,
                                frequencies=freqs)
        snr_var = analysis.snr(1.0)
        # The band misses out-of-band power: band SNR >= variance SNR.
        assert snr_band >= snr_var - 0.5

    def test_contribution_report(self, lowpass_model):
        analysis = NoiseAnalysis(lowpass_model, segments_per_phase=16)
        report = analysis.contribution_report(2e3)
        assert "C1" in report and "share" in report
        assert "Cross-spectral contributions" in report

    def test_instantaneous_psd(self, rc_system):
        inst = NoiseAnalysis(rc_system, segments_per_phase=32).instantaneous_psd(5e3)
        assert inst.times.shape == inst.values.shape


class TestSpectrumComparison:
    def test_deviation_statistics(self):
        comp = SpectrumComparison(
            frequencies=np.array([1.0, 2.0]),
            reference=np.array([1.0, 1.0]),
            candidate=np.array([2.0, 0.5]))
        dev = comp.deviation_db()
        assert dev[0] == pytest.approx(10 * np.log10(2.0))
        assert comp.max_abs_db == pytest.approx(10 * np.log10(2.0))
        assert not comp.within(1.0)
        assert comp.within(3.1)

    def test_summary_text(self):
        comp = compare_spectra([1.0], [1.0], [1.0], "rice", "mft")
        assert "mft vs rice" in comp.summary()

    def test_accepts_psd_results(self):
        a = PsdResult(frequencies=np.array([1.0]), psd=np.array([2.0]))
        comp = compare_spectra(a.frequencies, a, a)
        assert comp.max_abs_db == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ReproError):
            SpectrumComparison(np.array([1.0]), np.array([1.0, 2.0]),
                               np.array([1.0]))


class TestTables:
    def test_alignment_and_headers(self):
        table = format_table(["name", "value"],
                             [["a", 1.0], ["bb", 22.5]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_numeric_formatting(self):
        table = format_table(["x"], [[1.2345e-13]])
        assert "1.234e-13" in table or "1.235e-13" in table

    def test_row_width_validation(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [["only-one"]])


class TestCsv:
    def test_write_csv_roundtrip(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"],
                         [[1, 2], [3, 4]])
        text = path.read_text().strip().splitlines()
        assert text[0] == "a,b"
        assert text[2] == "3,4"

    def test_write_csv_validation(self, tmp_path):
        with pytest.raises(ReproError):
            write_csv(tmp_path / "t.csv", ["a"], [[1, 2]])

    def test_write_psd_csv(self, tmp_path):
        result = PsdResult(frequencies=np.array([1.0, 2.0]),
                           psd=np.array([0.5, 0.25]))
        path = write_psd_csv(tmp_path / "psd.csv", result,
                             extra_columns={"ref": [0.5, 0.5]})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,psd,ref"
        assert len(lines) == 3

    def test_write_psd_csv_column_validation(self, tmp_path):
        result = PsdResult(frequencies=np.array([1.0]),
                           psd=np.array([0.5]))
        with pytest.raises(ReproError):
            write_psd_csv(tmp_path / "p.csv", result,
                          extra_columns={"ref": [1.0, 2.0]})


class TestAsciiPlot:
    def test_basic_plot(self):
        x = np.linspace(1.0, 100.0, 50)
        y = np.log10(x)
        art = ascii_plot(x, y, width=40, height=10, label="demo")
        assert art.splitlines()[0] == "demo"
        assert "*" in art

    def test_logx(self):
        art = ascii_plot([1.0, 10.0, 100.0], [0.0, 1.0, 2.0],
                         logx=True)
        assert "*" in art

    def test_validation(self):
        with pytest.raises(ReproError):
            ascii_plot([1.0], [1.0])
        with pytest.raises(ReproError):
            ascii_plot([0.0, 1.0], [1.0, 2.0], logx=True)
        with pytest.raises(ReproError):
            ascii_plot([0.0, 1.0], [np.nan, np.nan])

    def test_constant_trace(self):
        art = ascii_plot([0.0, 1.0], [5.0, 5.0])
        assert "*" in art
