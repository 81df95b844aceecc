"""Equivalence suite: the fast sweep paths ARE the slow path.

The performance layer (``SweepContext`` fast solves, the sweep's
chunking) reorders linear algebra and work scheduling but must never
change results. For the switched-RC and SC low-pass circuits this
suite pins, against the serial per-frequency reference (every solve a
plain ``periodic_steady_state`` on locally built forcing):

* values equal to <= 1e-12 relative on every finite point,
* identical NaN/failure masks (including deliberately injected
  non-finite frequencies),
* identical ``DiagnosticsReport`` severity counts,

for the sweep-context fast path vs that reference and for chunked
sweeps vs :meth:`psd`, plus the headline acceptance check (64-point SC
low-pass sweep, fast path vs the serial reference).
"""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import repro.mft.executor as executor
from repro.diagnostics.budget import SweepBudget
from repro.lptv.periodic_solve import (
    forcing_from_samples,
    periodic_steady_state,
)
from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise.covariance import periodic_covariance
from repro.tolerances import FIXED_POINT_RIDGE

REL_TOL = 1e-12


class _ReferenceAnalyzer(MftNoiseAnalyzer):
    """The per-frequency reference: no sweep-context fast path.

    Each solve is :func:`periodic_steady_state` on forcing built from
    this analyzer's own :func:`periodic_covariance` of the
    discretization, so nothing but the discretization is shared with
    the fast path under test.
    """

    reference_solves = 0

    @cached_property
    def _reference_forcing(self):
        post, pre = periodic_covariance(self._disc).forcing_samples(
            self._l_row)
        return forcing_from_samples(self._disc, post, pre)

    def _solve(self, omega, forcing, solver="direct",
               ridge=FIXED_POINT_RIDGE, condition_limit=None):
        # The suite sweeps unattributed, so a stacked forcing is the
        # total's single row: answer it in the stacked (R = 1) shape.
        stacked = np.ndim(forcing) == 4
        assert not stacked or len(forcing) == 1
        self.reference_solves += 1
        solution = periodic_steady_state(
            self._disc, omega, self._reference_forcing, solver=solver,
            ridge=ridge, condition_limit=condition_limit)
        if stacked:
            solution = replace(solution,
                               integral=solution.integrate_dot()[None])
        return solution


def _severity_counts(report):
    counts = {}
    for finding in report.findings:
        counts[str(finding.severity)] = counts.get(
            str(finding.severity), 0) + 1
    return counts


def _assert_equivalent(reference, candidate, label):
    """Values, NaN masks, failures, and severity counts must match."""
    ref_finite = np.isfinite(reference.psd)
    cand_finite = np.isfinite(candidate.psd)
    assert np.array_equal(ref_finite, cand_finite), (
        f"{label}: NaN masks differ")
    if np.any(ref_finite):
        scale = np.max(np.abs(reference.psd[ref_finite]))
        diff = np.max(np.abs(candidate.psd[ref_finite]
                             - reference.psd[ref_finite]))
        rel = diff / scale if scale > 0.0 else diff
        assert rel <= REL_TOL, f"{label}: max rel diff {rel:.3e}"
    ref_failures = [(f.index, f.stage) for f in reference.failures]
    cand_failures = [(f.index, f.stage) for f in candidate.failures]
    assert ref_failures == cand_failures, f"{label}: failures differ"
    assert (_severity_counts(reference.diagnostics)
            == _severity_counts(candidate.diagnostics)), (
        f"{label}: diagnostics severity counts differ")


@pytest.fixture(params=["switched-rc", "sc-lowpass"])
def swept_system(request, rc_system, lowpass_model):
    """(system, grid) pairs; the grids include injected bad points."""
    if request.param == "switched-rc":
        grid = np.concatenate([np.linspace(100.0, 4e4, 14),
                               [np.inf, np.nan]])
        return rc_system, grid
    grid = np.concatenate([np.linspace(100.0, 12e3, 14), [np.inf]])
    return lowpass_model.system, grid


class TestCacheEquivalence:
    def test_cached_matches_uncached(self, swept_system):
        system, grid = swept_system
        clear_sweep_contexts()
        analyzer = _ReferenceAnalyzer(system)
        reference = analyzer.psd(grid)
        assert analyzer.reference_solves >= np.isfinite(grid).sum()
        cached = MftNoiseAnalyzer(system).psd(grid)
        _assert_equivalent(reference, cached, "cache-on vs cache-off")

    def test_cached_solver_controls_match(self, swept_system):
        # The lstsq/regularized path of the fast solve must also track
        # the reference implementation (the fallback chain relies on it).
        system, grid = swept_system
        finite = grid[np.isfinite(grid)]
        clear_sweep_contexts()
        ref = _ReferenceAnalyzer(system)
        fast = MftNoiseAnalyzer(system)
        for f in finite[:4]:
            a = ref._psd_at(f, solver="lstsq")
            b = fast._psd_at(f, solver="lstsq")
            assert abs(a - b) <= REL_TOL * max(abs(a), 1e-300)
        assert ref.reference_solves == 4


class TestChunkedSweepEquivalence:
    def test_chunked_sweep_matches_psd(self, swept_system):
        system, grid = swept_system
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(system)
        reference = analyzer.psd(grid)
        swept = analyzer.psd_sweep(grid, chunk_size=5)
        _assert_equivalent(reference, swept, "chunk=5 vs psd")

    def test_chunk_size_does_not_matter(self, rc_system):
        grid = np.linspace(100.0, 4e4, 11)
        analyzer = MftNoiseAnalyzer(rc_system)
        reference = analyzer.psd(grid)
        for chunk in (1, 3, 64):
            swept = analyzer.psd_sweep(grid, chunk_size=chunk)
            _assert_equivalent(reference, swept, f"chunk={chunk}")


class TestHeadlineAcceptance:
    def test_sc_lowpass_64pt_cached_matches_seed_serial(
            self, lowpass_model):
        # Acceptance criterion: on the 64-point SC low-pass sweep the
        # cached path matches the serial reference to <= 1e-12
        # relative on all finite points.
        grid = np.linspace(100.0, 12e3, 64)
        clear_sweep_contexts()
        reference = _ReferenceAnalyzer(lowpass_model.system)
        seed = reference.psd(grid)
        assert reference.reference_solves >= grid.size
        fast = MftNoiseAnalyzer(lowpass_model.system).psd_sweep(grid)
        _assert_equivalent(seed, fast, "cached vs seed serial")


def _slow_chunks(monkeypatch, delay):
    """Make every sweep chunk take a deterministic minimum time."""
    import time
    chunk_steps = executor.chunk_steps

    def slow_chunk_steps(*args):
        time.sleep(delay)
        return chunk_steps(*args)

    monkeypatch.setattr(executor, "chunk_steps", slow_chunk_steps)


class TestBudgetGate:
    def test_budget_stops_dispatch_but_not_inflight_chunks(
            self, rc_system, monkeypatch):
        # Chunks of 2 and a budget shorter than one chunk: the first
        # chunk is already running when the budget expires, so it must
        # complete (its points are finite), while every later chunk is
        # never dispatched (budget-stage failures).
        grid = np.linspace(100.0, 4e4, 8)
        analyzer = MftNoiseAnalyzer(rc_system)
        _slow_chunks(monkeypatch, delay=0.2)
        result = analyzer.psd_sweep(
            grid, chunk_size=2,
            budget=SweepBudget(wall_clock_seconds=0.05))
        assert np.all(np.isfinite(result.psd[:2])), (
            "in-flight chunk was not allowed to finish")
        assert np.all(~np.isfinite(result.psd[2:])), (
            "chunks were dispatched after the budget expired")
        budget_failures = [f for f in result.failures
                           if f.stage == "budget"]
        assert [f.index for f in budget_failures] == list(range(2, 8))
        assert result.diagnostics.by_code("budget-exhausted")
        assert result.info["executor"]["n_chunks_skipped"] == 3

    def test_psd_budget_gates_its_default_chunks(self, rc_system,
                                                 monkeypatch):
        # psd is psd_sweep at the default chunk size (8 frequencies),
        # so it gets a grid spanning two of its chunks.
        sweeps = [
            (lambda analyzer, grid, budget: analyzer.psd_sweep(
                grid, chunk_size=2, budget=budget), 6, 2),
            (lambda analyzer, grid, budget: analyzer.psd(
                grid, budget=budget), 16, 8),
        ]
        _slow_chunks(monkeypatch, delay=0.1)
        for sweep, n_points, first_chunk in sweeps:
            grid = np.linspace(100.0, 4e4, n_points)
            analyzer = MftNoiseAnalyzer(rc_system)
            serial = sweep(analyzer, grid,
                           SweepBudget(wall_clock_seconds=0.05))
            assert np.all(np.isfinite(serial.psd[:first_chunk]))
            assert np.all(~np.isfinite(serial.psd[first_chunk:]))
            stages = {f.stage for f in serial.failures}
            assert stages == {"budget"}


class TestExecutorMetadata:
    def test_result_reports_executor_and_cache_stats(self, rc_system):
        grid = np.linspace(100.0, 4e4, 6)
        analyzer = MftNoiseAnalyzer(rc_system)
        result = analyzer.psd_sweep(grid, chunk_size=3)
        meta = result.info["executor"]
        assert meta["chunk_size"] == 3
        assert meta["n_chunks"] == 2
        assert meta["n_chunks_skipped"] == 0
        # Contexts keep no hit/miss counters, so a sweep reports none.
        assert "cache_stats" not in result.info
