"""The repro.metrics layer: error results, band metrics, budgets.

Covers the satellite contracts of the metrics battery:

* degenerate inputs (empty band, band outside the swept range, all-NaN
  slice, single-frequency sweep, NaN inside the band) return *tagged*
  insufficient-data results with a diagnostic finding — they never
  raise and never come back as a silent ``0.0``;
* band edges between grid points are interpolated, never truncated to
  the interior samples (the 3-point regression grid below is ~26% off
  under truncation);
* :class:`~repro.metrics.ContributionBudget` enforces the NaN-union
  contract and its fractions/ranking/table/CSV renderings agree with
  hand-computed values.
"""

import numpy as np
import pytest

from repro.diagnostics import Severity
from repro.errors import ReproError
from repro.metrics import (
    INSUFFICIENT_DATA_TAGS,
    ContributionBudget,
    MetricResult,
    insufficient,
    integrated_noise_power,
    metric_value,
    noise_figure,
    rms_noise,
    snr,
    spot_noise,
)
from repro.noise.result import PsdResult
from repro.noise.snr import integrated_noise_power as strict_band_power
from repro.obs import Recorder
from repro.tolerances import ATTRIBUTION_CONSERVATION_RTOL


def flat_psd(level=1.0, f_lo=1.0, f_hi=10.0, n=10):
    freqs = np.linspace(f_lo, f_hi, n)
    return PsdResult(frequencies=freqs,
                     psd=np.full(freqs.shape, float(level)))


def assert_insufficient(result, tag):
    """The full insufficient-data contract for one result."""
    assert isinstance(result, MetricResult)
    assert not result.ok
    assert not result  # __bool__ is ok
    assert result.reason == tag
    assert tag in INSUFFICIENT_DATA_TAGS
    assert np.isnan(result.value), "failure must poison, not zero"
    assert result.value != 0.0 or np.isnan(result.value)
    assert result.detail
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.code == f"metric-{tag}"
    assert finding.severity == Severity.WARNING
    with pytest.raises(ReproError):
        result.expect()
    report = result.diagnostics()
    assert [f.code for f in report.findings] == [f"metric-{tag}"]


class TestErrorResults:
    """Satellite: degenerate inputs return tagged error results."""

    @pytest.mark.parametrize("metric", [
        integrated_noise_power, rms_noise,
        lambda res, lo, hi: snr(res, 1.0, lo, hi),
        lambda res, lo, hi: noise_figure(res, 1e-18, lo, hi),
    ], ids=["power", "rms", "snr", "nf"])
    def test_empty_band(self, metric):
        assert_insufficient(metric(flat_psd(), 5.0, 2.0), "empty-band")
        assert_insufficient(metric(flat_psd(), 5.0, 5.0), "empty-band")

    @pytest.mark.parametrize("band", [(20.0, 30.0), (0.1, 0.5),
                                      (5.0, 11.0), (0.5, 5.0)])
    def test_band_outside_swept_range(self, band):
        result = integrated_noise_power(flat_psd(), *band)
        assert_insufficient(result, "band-outside-range")

    def test_all_nan_psd_slice(self):
        res = PsdResult(frequencies=np.linspace(1.0, 10.0, 8),
                        psd=np.full(8, np.nan))
        assert_insufficient(integrated_noise_power(res), "all-nan-psd")
        assert_insufficient(rms_noise(res), "all-nan-psd")
        assert_insufficient(snr(res, 1.0), "all-nan-psd")
        assert_insufficient(spot_noise(res, 5.0), "all-nan-psd")

    def test_single_frequency_sweep(self):
        res = PsdResult(frequencies=np.array([5.0]),
                        psd=np.array([1e-12]))
        assert_insufficient(integrated_noise_power(res),
                            "single-frequency")
        # One *finite* sample among NaNs is just as degenerate.
        res = PsdResult(frequencies=np.linspace(1.0, 10.0, 5),
                        psd=np.array([np.nan, 1e-12, np.nan,
                                      np.nan, np.nan]))
        assert_insufficient(rms_noise(res), "single-frequency")

    def test_nan_inside_band_is_tagged_not_integrated(self):
        psd = np.ones(10)
        psd[4] = np.nan
        res = PsdResult(frequencies=np.linspace(1.0, 10.0, 10), psd=psd)
        band = (res.frequencies[2], res.frequencies[7])
        assert_insufficient(integrated_noise_power(res, *band),
                            "nan-in-band")
        # A band that avoids the failed frequency still works.
        ok = integrated_noise_power(res, res.frequencies[5],
                                    res.frequencies[8])
        assert ok.ok

    def test_negative_band_power_is_tagged_for_rms(self):
        res = flat_psd(level=-1.0)
        assert_insufficient(rms_noise(res), "non-positive-power")
        assert_insufficient(snr(res, 1.0), "non-positive-power")
        assert_insufficient(noise_figure(res, 1e-18),
                            "non-positive-power")

    def test_spot_noise_out_of_range_and_nan_bracket(self):
        assert_insufficient(spot_noise(flat_psd(), 11.0),
                            "band-outside-range")
        psd = np.ones(10)
        psd[4] = np.nan
        res = PsdResult(frequencies=np.linspace(1.0, 10.0, 10), psd=psd)
        mid = 0.5 * (res.frequencies[3] + res.frequencies[4])
        assert_insufficient(spot_noise(res, mid), "nan-in-band")

    def test_negative_signal_power_is_an_argument_error(self):
        # Bad *arguments* raise; only bad *data* returns error results.
        with pytest.raises(ReproError):
            snr(flat_psd(), -1.0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ReproError):
            insufficient("x", "V^2", "not-a-tag", "nope")

    def test_ok_result_contract(self):
        result = metric_value("x", 2.5, "V^2", f_low=1.0)
        assert result.ok and bool(result)
        assert result.expect() == 2.5
        assert result.findings == ()
        round_trip = result.to_dict()
        assert round_trip["value"] == 2.5
        assert round_trip["ok"] is True
        failed = insufficient("x", "V^2", "empty-band", "why")
        assert failed.to_dict()["findings"][0]["code"] == "metric-empty-band"


class TestBandEdgeInterpolation:
    """Satellite: band edges are interpolated, never truncated."""

    def test_three_point_regression_grid(self):
        # On [0, 1, 2] with PSD [1, 2, 3] and band [0.5, 2.0]:
        # truncating to the interior samples {1, 2} gives 2*2.5 = 5.0;
        # interpolating the 0.5 edge (PSD 1.5) gives
        # 2*(0.5*(1.5+2)/2 + (2+3)/2) = 6.75 — truncation is ~26% low.
        res = PsdResult(frequencies=np.array([0.0, 1.0, 2.0]),
                        psd=np.array([1.0, 2.0, 3.0]))
        interpolated = 6.75
        truncated = 5.0
        assert abs(truncated / interpolated - 1.0) > 0.2

        assert strict_band_power(res, 0.5, 2.0) == pytest.approx(
            interpolated, rel=1e-12)
        result = integrated_noise_power(res, 0.5, 2.0)
        assert result.ok
        assert result.value == pytest.approx(interpolated, rel=1e-12)

    def test_both_edges_between_grid_points(self):
        res = PsdResult(frequencies=np.array([0.0, 1.0, 2.0]),
                        psd=np.array([1.0, 2.0, 3.0]))
        # [0.5, 1.5]: edges interp to 1.5 and 2.5 around the f=1 sample.
        expected = 2.0 * (0.5 * (1.5 + 2.0) / 2 + 0.5 * (2.0 + 2.5) / 2)
        assert integrated_noise_power(res, 0.5, 1.5).value == (
            pytest.approx(expected, rel=1e-12))
        assert strict_band_power(res, 0.5, 1.5) == pytest.approx(
            expected, rel=1e-12)

    def test_band_with_no_interior_sample(self):
        res = PsdResult(frequencies=np.array([0.0, 1.0, 2.0]),
                        psd=np.array([1.0, 2.0, 3.0]))
        # (1.2, 1.8) straddles no grid point at all.
        expected = 2.0 * 0.6 * (2.2 + 2.8) / 2
        assert integrated_noise_power(res, 1.2, 1.8).value == (
            pytest.approx(expected, rel=1e-12))

    def test_strict_variant_raises_outside_range(self):
        # The never-raising variant tags it; the snr-module variant and
        # PsdResult.integrated_power refuse to extrapolate.
        res = flat_psd()
        with pytest.raises(ReproError):
            strict_band_power(res, 0.1, 5.0)
        with pytest.raises(ReproError):
            res.integrated_power(1.0, 11.0)
        assert_insufficient(integrated_noise_power(res, 0.1, 5.0),
                            "band-outside-range")


class TestMetricValues:
    def test_flat_psd_band_power_and_rms(self):
        res = flat_psd(level=2.0, f_lo=0.0, f_hi=10.0)
        result = integrated_noise_power(res, 0.0, 10.0)
        assert result.value == pytest.approx(40.0, rel=1e-12)
        assert result.unit == "V^2"
        assert rms_noise(res).value == pytest.approx(np.sqrt(40.0),
                                                     rel=1e-12)

    def test_snr_matches_strict_helper(self):
        from repro.noise.snr import signal_power_sine, snr_db
        res = flat_psd(level=1e-12, f_lo=0.0, f_hi=10.0)
        p_signal = signal_power_sine(0.5)
        result = snr(res, p_signal, 0.0, 10.0)
        assert result.unit == "dB"
        assert result.value == pytest.approx(
            snr_db(p_signal, strict_band_power(res, 0.0, 10.0)),
            abs=1e-12)

    def test_noise_figure_against_flat_density_and_psd(self):
        res = flat_psd(level=4e-18, f_lo=0.0, f_hi=10.0)
        # Against a flat double-sided density of 1e-18: 10 log10(4).
        result = noise_figure(res, 1e-18, 0.0, 10.0)
        assert result.value == pytest.approx(10 * np.log10(4.0),
                                             rel=1e-12)
        # Against a reference PsdResult on a *different* grid.
        ref = flat_psd(level=1e-18, f_lo=0.0, f_hi=20.0, n=41)
        result = noise_figure(res, ref, 0.0, 10.0)
        assert result.value == pytest.approx(10 * np.log10(4.0),
                                             rel=1e-12)

    def test_spot_noise_interpolates(self):
        res = PsdResult(frequencies=np.array([0.0, 1.0, 2.0]),
                        psd=np.array([1.0, 2.0, 3.0]))
        assert spot_noise(res, 0.5).value == pytest.approx(1.5)
        assert spot_noise(res, 2.0).value == pytest.approx(3.0)

    def test_metrics_record_spans_and_counters(self):
        rec = Recorder()
        res = flat_psd()
        assert integrated_noise_power(res, recorder=rec).ok
        assert_insufficient(
            integrated_noise_power(res, 5.0, 2.0, recorder=rec),
            "empty-band")
        export = rec.export()
        names = {span["name"] for span in export["spans"]}
        assert "metrics.integrated_noise_power" in names
        assert export["counters"]["metrics.computed"] == 1
        assert export["counters"]["metrics.insufficient_data"] == 1


class TestContributionBudget:
    def budget(self):
        freqs = np.array([1.0, 2.0, 3.0, 4.0])
        contributions = np.array([[1.0, 1.0, 1.0, 1.0],
                                  [3.0, 3.0, 3.0, 3.0]])
        return ContributionBudget(
            frequencies=freqs, labels=["a", "b"],
            contributions=contributions,
            total=contributions.sum(axis=0), output="vout",
            method="mft", solver="mft")

    def test_nan_union_contract_enforced(self):
        freqs = np.array([1.0, 2.0, 3.0])
        good = np.ones((2, 3))
        total = np.full(3, 2.0)
        # NaN only in the total.
        with pytest.raises(ReproError, match="NaN masks"):
            ContributionBudget(frequencies=freqs, labels=["a", "b"],
                               contributions=good,
                               total=np.array([2.0, np.nan, 2.0]))
        # NaN only in one row.
        bad_rows = good.copy()
        bad_rows[0, 1] = np.nan
        with pytest.raises(ReproError, match="NaN masks"):
            ContributionBudget(frequencies=freqs, labels=["a", "b"],
                               contributions=bad_rows, total=total)
        # NaN in both at the same frequency is a *valid* failed point.
        rows = good.copy()
        rows[:, 1] = np.nan
        budget = ContributionBudget(
            frequencies=freqs, labels=["a", "b"], contributions=rows,
            total=np.array([2.0, np.nan, 2.0]))
        assert budget.ok_mask().tolist() == [True, False, True]

    def test_shape_and_label_validation(self):
        with pytest.raises(ReproError):
            ContributionBudget(frequencies=np.ones(3), labels=["a"],
                               contributions=np.ones((2, 3)),
                               total=np.ones(3))
        with pytest.raises(ReproError):
            ContributionBudget(frequencies=np.ones(3), labels=["a", "b"],
                               contributions=np.ones((2, 4)),
                               total=np.ones(3))

    def test_conservation_error_and_check(self):
        budget = self.budget()
        assert budget.conservation_error() == 0.0
        budget.check_conservation()
        broken = self.budget()
        broken.total = broken.total * (1.0 + 1e-6)
        assert broken.conservation_error() > 1e-7
        with pytest.raises(ReproError, match="conservation"):
            broken.check_conservation()
        # The default gate is the shared tolerance constant.
        nudged = self.budget()
        nudged.total = nudged.total * (
            1.0 + 0.1 * ATTRIBUTION_CONSERVATION_RTOL)
        nudged.check_conservation()

    def test_fractions_and_integrated_and_ranked(self):
        budget = self.budget()
        fractions = budget.fractions()
        np.testing.assert_allclose(fractions[0], 0.25)
        np.testing.assert_allclose(fractions[1], 0.75)
        powers = budget.integrated()
        np.testing.assert_allclose(powers, [2.0 * 3.0, 2.0 * 9.0])
        ranked = budget.ranked()
        assert [row[0] for row in ranked] == ["b", "a"]
        assert ranked[0][2] == pytest.approx(0.75)
        # Degenerate band: fewer than two finite samples -> NaN, not 0.
        assert np.all(np.isnan(budget.integrated(3.5, 3.9)))

    def test_table_renders_ranked_budget(self):
        table = self.budget().to_table()
        assert "vout" in table
        assert "75.0%" in table and "25.0%" in table
        assert table.index(" b ") < table.index(" a ")

    def test_to_dict_round_trip(self):
        data = self.budget().to_dict()
        assert data["labels"] == ["a", "b"]
        assert data["conservation_error"] == 0.0
        assert len(data["contributions"]) == 2

    def test_write_budget_csv_preserves_nan_union(self, tmp_path):
        from repro.io import write_budget_csv
        freqs = np.array([1.0, 2.0, 3.0])
        rows = np.ones((2, 3))
        rows[:, 1] = np.nan
        budget = ContributionBudget(
            frequencies=freqs, labels=["a", "b"], contributions=rows,
            total=np.array([2.0, np.nan, 2.0]))
        path = write_budget_csv(tmp_path / "budget.csv", budget)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,total,a,b"
        failed = lines[2].split(",")
        assert failed[0] == "2.0"
        assert all(cell == "nan" for cell in failed[1:])
