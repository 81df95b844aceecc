"""Per-source attribution: conservation battery + NaN/resume contracts.

The headline satellite: for **every** circuit in the library and every
deterministic solver (``mft``, ``spectral-batch``, ``brute-force``) the
per-source contributions must sum to the total PSD within the shared
``ATTRIBUTION_CONSERVATION_RTOL`` (1e-9) at every frequency.  With the
exactly conservative Gramian split (``split_source_gramians``) the
observed residuals are machine precision (~1e-15, worst ~3e-14 on the
near-marginal ideal integrator); the 1e-9 gate leaves headroom without
ever letting a real decomposition bug through.

The rest of the file pins the contracts around the happy path: NaN
masks stay a *union* through failed and budget-skipped chunks, an
attributed brute-force sweep spends the plain sweep's budget once, labels
resolve from the model, and the sampled Monte-Carlo estimator refuses
to attribute at all.
"""

import numpy as np
import pytest

from repro.analysis import NoiseAnalysis
from repro.circuits import (
    ParameterGrid,
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.diagnostics import budget as budget_module
from repro.diagnostics.budget import SweepBudget
from repro.errors import ReproError
from repro.metrics import ContributionBudget
from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise import brute_force as brute_force_module
from repro.obs import Recorder

#: Every circuit the library ships, with its per-source count.
CIRCUITS = {
    "switched-rc": (switched_rc_system, 1),
    "sc-lowpass": (sc_lowpass_system, 5),
    "sc-bandpass": (sc_bandpass_system, 12),
    "sc-integrator": (sc_integrator_system, 4),
    "sample-hold": (sample_hold_system, 2),
}

SOLVERS = [None, "spectral-batch", "brute-force"]

SPP = 16


def battery_grid(system, n=3):
    """Three in-band points clear of DC and the Nyquist edge."""
    period = system.period
    return np.linspace(0.05 / period, 0.35 / period, n)


def build_analysis(name):
    clear_sweep_contexts()
    build, _ = CIRCUITS[name]
    return NoiseAnalysis(build(), segments_per_phase=SPP)


@pytest.fixture(autouse=True)
def _fresh_contexts():
    clear_sweep_contexts()
    yield
    clear_sweep_contexts()


class TestConservationBattery:
    """Contributions sum to the total on every circuit x solver."""

    @pytest.mark.parametrize("solver", SOLVERS,
                             ids=["mft", "spectral-batch", "brute-force"])
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_budget_conserves(self, circuit, solver):
        analysis = build_analysis(circuit)
        freqs = battery_grid(analysis.system)
        options = {"tol_db": 1.0} if solver == "brute-force" else {}
        result = analysis.psd(freqs, solver=solver,
                              attribute_sources=True, **options)
        budget = result.budget
        assert isinstance(budget, ContributionBudget)
        _, n_sources = CIRCUITS[circuit]
        assert len(budget.labels) == n_sources
        assert budget.contributions.shape == (n_sources, freqs.size)
        assert np.all(np.isfinite(result.psd))
        # The gate itself: raises listing the worst frequency if the
        # decomposition leaks more than 1e-9 of the total anywhere.
        budget.check_conservation()
        # The budget's total *is* the sweep's PSD, bit for bit — the
        # rows are a decomposition of the same numbers the caller sees.
        assert np.array_equal(budget.total, result.psd)

    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_attribution_leaves_total_unchanged(self, circuit):
        analysis = build_analysis(circuit)
        freqs = battery_grid(analysis.system)
        plain = analysis.psd(freqs)
        assert plain.budget is None
        attributed = analysis.psd(freqs, attribute_sources=True)
        assert np.array_equal(plain.psd, attributed.psd)

    def test_sweep_budget_matches_inline_psd(self):
        analysis = build_analysis("sc-lowpass")
        freqs = battery_grid(analysis.system, n=6)
        inline = analysis.psd(freqs, attribute_sources=True)
        swept = analysis.psd_sweep(freqs, chunk_size=2,
                                   attribute_sources=True)
        assert np.array_equal(inline.psd, swept.psd)
        assert np.array_equal(inline.budget.contributions,
                              swept.budget.contributions)
        swept.budget.check_conservation()


class TestNanUnion:
    """NaN masks stay a union of the total and every budget row."""

    def _check_union(self, result, nan_mask):
        assert np.isnan(result.psd).tolist() == nan_mask
        budget = result.budget
        # Failed frequencies are NaN in the total AND in every row:
        # a partial budget at a failed point would be unverifiable.
        for row in budget.contributions:
            np.testing.assert_array_equal(np.isnan(row), nan_mask)
        np.testing.assert_array_equal(np.isnan(budget.total), nan_mask)
        # Conservation still holds on the surviving frequencies.
        budget.check_conservation()
        assert budget.ok_mask().sum() == nan_mask.count(False)

    def test_nan_union_through_chunk_failure(self):
        analysis = build_analysis("sc-lowpass")
        freqs = battery_grid(analysis.system, n=12)
        freqs[4:8] = [np.nan, np.inf, -np.inf, np.nan]
        result = analysis.psd_sweep(freqs, chunk_size=4,
                                    attribute_sources=True)
        assert [f.index for f in result.failures] == [4, 5, 6, 7]
        self._check_union(result, [False] * 4 + [True] * 4 + [False] * 4)

    def test_nan_union_through_budget_skip(self, first_chunk_budget):
        analysis = build_analysis("sc-lowpass")
        freqs = battery_grid(analysis.system, n=12)
        result = analysis.psd_sweep(freqs, chunk_size=4,
                                    attribute_sources=True,
                                    budget=first_chunk_budget)
        assert result.info["executor"]["n_chunks_skipped"] == 2
        assert {f.stage for f in result.failures} == {"budget"}
        self._check_union(result, [False] * 4 + [True] * 8)


def _corner_labels(analysis, freqs):
    grid = ParameterGrid.cross({"nom": {}}, {"x1": 1.0, "x2": 2.0})
    result = analysis.psd_corners(grid, freqs, attribute_sources=True)
    return [budget.labels for budget in result.budgets.values()]


#: Every path that resolves ``attribute_sources=True`` on a model.
LABEL_PATHS = {
    "mft": lambda a, f: [a.psd(f, attribute_sources=True).budget.labels],
    "spectral-batch": lambda a, f: [a.psd_sweep(
        f, solver="spectral-batch", attribute_sources=True).budget.labels],
    "brute-force": lambda a, f: [a.psd(
        f[:1], solver="brute-force",
        attribute_sources=True).budget.labels],
    "corners": _corner_labels,
}


class TestLabelsAndModes:
    @pytest.mark.parametrize("path", list(LABEL_PATHS))
    def test_model_noise_labels_name_the_rows(self, path):
        analysis = build_analysis("sc-lowpass")
        freqs = battery_grid(analysis.system)
        expected = list(analysis.model.noise_labels)
        assert "op:vn" in expected
        rows = LABEL_PATHS[path](analysis, freqs)
        assert rows and all(labels == expected for labels in rows)

    def test_custom_labels_override(self):
        analysis = build_analysis("switched-rc")
        freqs = battery_grid(analysis.system)
        result = analysis.psd(freqs, attribute_sources=["track-R"])
        assert result.budget.labels == ["track-R"]

    def test_bare_system_falls_back_to_positional_labels(self):
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(switched_rc_system(),
                                    segments_per_phase=SPP)
        result = analyzer.psd(battery_grid(analyzer.system),
                              attribute_sources=True)
        assert result.budget.labels == ["source0"]

    def test_wrong_label_count_raises(self):
        analysis = build_analysis("switched-rc")
        with pytest.raises(ReproError, match="noise columns"):
            analysis.psd(battery_grid(analysis.system),
                         attribute_sources=["a", "b", "c"])

    def test_monte_carlo_refuses_attribution(self):
        analysis = build_analysis("switched-rc")
        with pytest.raises(ReproError, match="monte-carlo"):
            analysis.psd(None, solver="monte-carlo",
                         attribute_sources=True)


class _NestedSweepAnalyzer(MftNoiseAnalyzer):
    """Runs one plain ``psd`` from inside its own first solve."""

    inner = None

    def _strategies(self, frequency, *args):
        if self.inner is None:
            self.inner = False  # run the inner sweep once
            self.inner = self.psd([frequency])
        return super()._strategies(frequency, *args)


class TestNestedSweeps:
    """Regression: a sweep keeps its attribution request to itself.

    A plain sweep nested inside an attributed one on the *same*
    analyzer used to disarm the outer sweep's attribution state; the
    request now travels with the call, so neither sees the other's.
    """

    @pytest.mark.parametrize("entry", ["psd", "psd_sweep"])
    def test_inner_plain_sweep_keeps_outer_attribution(self, entry):
        system = sc_lowpass_system().system
        freqs = battery_grid(system, n=4)
        analyzer = _NestedSweepAnalyzer(system, segments_per_phase=SPP)
        outer = getattr(analyzer, entry)(freqs, attribute_sources=True)
        plain = MftNoiseAnalyzer(system, segments_per_phase=SPP).psd(freqs)
        outer.budget.check_conservation()
        assert np.array_equal(outer.psd, plain.psd)
        assert analyzer.inner.budget is None
        assert np.isfinite(analyzer.inner.psd[0])


class _TickingClock:
    """A ``time`` stand-in whose clock advances one second per read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestBruteForceBudget:
    """Attribution never changes which frequencies fail or what they read.

    The ``[total, source…]`` rows ride in one transient per frequency,
    so an attributed brute-force sweep spends the plain sweep's periods
    and wall clock, once.
    """

    FREQS = np.array([500.0, 1500.0])
    OPTIONS = {"tol_db": 1.0, "on_failure": "record"}

    @staticmethod
    def _analyzer():
        return MftNoiseAnalyzer(sc_lowpass_system().system,
                                segments_per_phase=SPP)

    def test_period_budget_of_the_plain_sweep(self):
        analyzer = self._analyzer()
        plain = analyzer.psd(self.FREQS, solver="brute-force",
                             **self.OPTIONS)
        assert np.all(np.isfinite(plain.psd))
        budget = SweepBudget(max_total_periods=plain.info["total_periods"])
        attributed = analyzer.psd(self.FREQS, solver="brute-force",
                                  attribute_sources=True, budget=budget,
                                  **self.OPTIONS)
        assert attributed.psd.tobytes() == plain.psd.tobytes()
        assert attributed.failures == []
        assert attributed.info["total_periods"] == budget.spent_periods
        attributed.budget.check_conservation()

    def test_float_budget_is_one_clock(self, monkeypatch):
        clock = _TickingClock()
        for module in (budget_module, brute_force_module):
            monkeypatch.setattr(module, "time", clock)
        analyzer = self._analyzer()
        start = clock.now
        plain = analyzer.psd(self.FREQS, solver="brute-force",
                             budget=1e9, **self.OPTIONS)
        allowance = 2.0 * (clock.now - start)
        start = clock.now
        attributed = analyzer.psd(self.FREQS, solver="brute-force",
                                  attribute_sources=True, budget=allowance,
                                  **self.OPTIONS)
        assert clock.now - start <= allowance
        assert attributed.psd.tobytes() == plain.psd.tobytes()
        attributed.budget.check_conservation()


class TestObservability:
    def test_attribution_spans_and_counters(self):
        clear_sweep_contexts()
        model = sc_lowpass_system()
        recorder = Recorder()
        analyzer = MftNoiseAnalyzer(model.system,
                                    segments_per_phase=SPP,
                                    recorder=recorder)
        freqs = battery_grid(analyzer.system)
        result = analyzer.psd(freqs, attribute_sources=True)
        assert result.budget is not None
        counters = recorder.counters
        assert counters.get("attribution.sweeps") == 1
        assert counters.get("attribution.sources") == 5
        names = {span.name for span in recorder.spans}
        assert "attribution.budget" in names
        assert recorder.is_balanced()
