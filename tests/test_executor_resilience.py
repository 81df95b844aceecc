"""Sweep-loop contracts: argument validation, budget gate, exceptions.

Pins, on the switched-RC circuit, the sweep's argument validation,
that the keywords of the deleted process backend and resilience layer
are gone from every entry point, the budget-spent-before-first-dispatch
edge, and that exceptions escaping a chunk propagate to the caller
instead of being hidden as NaN chunks.
"""

import numpy as np
import pytest

import repro.mft.executor as executor
from repro.analysis import NoiseAnalysis
from repro.circuits import ParameterGrid
from repro.diagnostics.budget import SweepBudget
from repro.errors import ReproError
from repro.mft.context import clear_sweep_contexts
from repro.mft.corners import corner_psd_sweep
from repro.mft.engine import MftNoiseAnalyzer
from repro.service import JobQueue

#: Fast but non-trivial: 12 finite frequencies -> 3 chunks of 4.
N_FREQS = 12
CHUNK = 4

#: Keywords of the deleted process backend and resilience layer.
REMOVED_KEYWORDS = ("parallel", "max_workers", "retry", "faults",
                    "checkpoint")


@pytest.fixture
def grid():
    return np.linspace(100.0, 4e4, N_FREQS)


@pytest.fixture
def analyzer(rc_system):
    clear_sweep_contexts()
    return MftNoiseAnalyzer(rc_system)


def _sweep(analyzer, grid, **kwargs):
    return analyzer.psd_sweep(grid, chunk_size=CHUNK, **kwargs)


class TestArgumentValidation:
    """Bad chunk knobs fail fast with the range; removed knobs are gone."""

    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_nonpositive_chunk_size(self, analyzer, grid, value):
        with pytest.raises(ReproError, match="chunk_size"):
            analyzer.psd_sweep(grid, chunk_size=value)

    @pytest.mark.parametrize("value", [True, False, 2.0, "4"])
    def test_rejects_non_integers(self, analyzer, grid, value):
        with pytest.raises(ReproError, match="chunk_size"):
            analyzer.psd_sweep(grid, chunk_size=value)

    def test_error_names_allowed_range(self, analyzer, grid):
        for solver in ("mft", "spectral-batch"):
            with pytest.raises(ReproError, match=r"\[1, "):
                analyzer.psd_sweep(grid, chunk_size=0, solver=solver)

    def test_pool_option_is_gone(self, analyzer, grid):
        for solver in ("mft", "spectral-batch", "brute-force"):
            with pytest.raises(TypeError, match="pool"):
                analyzer.psd_sweep(grid, solver=solver, pool=object())

    @pytest.mark.parametrize("keyword", REMOVED_KEYWORDS)
    def test_removed_keywords_raise_type_error(self, rc_system, grid,
                                               keyword):
        analysis = NoiseAnalysis(rc_system)
        corners = ParameterGrid.cross({"nom": {}}, {"x1": 1.0})
        option = {keyword: None}
        for solver in ("mft", "spectral-batch", "brute-force"):
            with pytest.raises(TypeError, match=keyword):
                analysis.psd_sweep(grid, solver=solver, **option)
        with pytest.raises(TypeError, match=keyword):
            analysis.psd_sweep(None, solver="monte-carlo", **option)
        with pytest.raises(TypeError, match=keyword):
            analysis.psd_corners(corners, grid, **option)
        with pytest.raises(TypeError, match=keyword):
            corner_psd_sweep(rc_system, corners, grid, **option)
        with pytest.raises(TypeError, match=keyword):
            JobQueue(**option)
        with pytest.raises(TypeError, match="backend"):
            JobQueue(backend="serial")


class TestBudgetSpentBeforeDispatch:
    """A pre-spent budget still yields a well-formed result."""

    def test_all_frequencies_become_budget_failures(self, analyzer,
                                                    grid):
        result = _sweep(analyzer, grid,
                        budget=SweepBudget(wall_clock_seconds=0.0))
        assert result.psd.shape == grid.shape
        assert np.all(np.isnan(result.psd))
        failures = result.failures
        assert [f.index for f in failures] == list(range(grid.size))
        assert {f.stage for f in failures} == {"budget"}
        assert result.diagnostics.by_code("budget-exhausted")
        meta = result.info["executor"]
        assert meta["n_chunks_skipped"] == meta["n_chunks"]


class TestExceptionsPropagate:
    """Nothing escaping a chunk is retried or hidden as a NaN chunk."""

    def test_numerical_errors_propagate(self, analyzer, grid):
        # on_failure="raise" keeps its contract: ReproError propagates.
        bad = np.concatenate([grid, [np.nan]])
        with pytest.raises(ReproError):
            _sweep(analyzer, bad, on_failure="raise")

    def test_unexpected_errors_propagate(self, analyzer, grid,
                                         monkeypatch):
        calls = []

        def broken_chunk(roots, index, solver, freqs, *args):
            calls.append(freqs.size)
            raise RuntimeError("chunk body bug")

        monkeypatch.setattr(executor, "chunk_steps", broken_chunk)
        with pytest.raises(RuntimeError, match="chunk body bug"):
            _sweep(analyzer, grid)
        # The first chunk's error ends the sweep: no re-run, no skip.
        assert calls == [CHUNK]
