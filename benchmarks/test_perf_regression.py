"""Performance gates: each fast path against the variant it claims to beat.

Every speed gate times its mechanism and the variant it claims to beat
in alternating order over ``REPEATS`` rounds, in the same kernel and
cache state, and compares the medians:

* spectral-batch >= 2x the per-frequency ``mft`` sweep on the 256-point
  SC low-pass grid, each side on a fresh sweep context;
* the default spectral-batch sweep, one ω-block over that grid, >=
  1.15x the same sweep cut into 64-frequency blocks (the default it
  replaced), same cold state;
* a fully attributed spectral-batch sweep <= 2.5x the unattributed
  spectral-batch sweep of the same 64-point grid, same cold state;
* the 16-corner batched solve >= ``CORNER_SPEEDUP_FLOOR`` x 16
  independent spectral sweeps over the same registered, warm dynamics
  roots (the cold ratio is printed, not gated);
* one long-lived serial ``JobQueue`` (result store armed) >= 1.5x the
  cold per-submission loop on 6 jobs x 3 passes.

Each side's median and inter-quartile range are printed.  The other
gates pin what the fast paths must not change — numerical equivalence,
NaN masks and failure records, attribution bit-identity and
conservation, store hits — and what observability may cost when
disabled (< 2%) or must cover (>= 95% of the sweep).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py``
(the benchmarks tree is outside the tier-1 ``testpaths``).  With
``REPRO_BENCH_TINY=1`` every workload shrinks to smoke size and the
speed assertions are skipped (tiny grids are dispatch-dominated); every
other gate still runs.
"""

import functools
import gc
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.circuits import (
    NOMINAL_TEMPERATURE_K,
    ParameterGrid,
    ScLowpassParams,
    sc_lowpass_system,
)
from repro.circuits.sc_lowpass import SC_LOWPASS_C1, SC_LOWPASS_C2
from repro.mft.context import clear_sweep_contexts, sweep_context_for
from repro.mft.corners import _build_roots, corner_psd_sweep
from repro.mft.engine import MftNoiseAnalyzer
from repro.obs import NULL_RECORDER, Recorder, attributed_fraction
from repro.service import JobQueue, JobSpec
from repro.tolerances import (
    CORNER_SPEEDUP_FLOOR,
    PARAM_BATCH_EQUIVALENCE_RTOL,
)

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
skip_speed_if_tiny = pytest.mark.skipif(
    TINY, reason="tiny grids are dispatch-dominated; speed is asserted "
                 "on the full workloads")

#: Alternating rounds per speed gate; each side's median is compared.
REPEATS = 9
SEGMENTS = 16 if TINY else 64


def _lowpass_grid(n_points):
    grid = np.linspace(100.0, 12e3, n_points)
    return grid[::8] if TINY else grid


GRID_64 = _lowpass_grid(64)
GRID_256 = _lowpass_grid(256)

#: The spectral kernel reorders floating-point work (batched LU, scalar
#: φ-series) relative to the per-ω reference.
SPECTRAL_REL_TOL = 1e-9
SPECTRAL_SPEEDUP = 2.0
#: One whole-grid ω-block over 64-frequency blocks: each block replays
#: the per-segment trace recursion.
ONE_BLOCK_SPEEDUP = 1.15
#: Attributed over unattributed, both through the stacked spectral
#: kernel: context reuse plus multi-RHS batching, not n_sources x.
ATTRIBUTION_COST_RATIO = 2.5
SERVICE_SPEEDUP = 1.5

#: Corner family: ±10% on the paper's C1/C2, and four noise-intensity
#: corners — cold and hot silicon (PSDs scale as T / 300 K) and a
#: worst case 25% above nominal.
CORNER_CAP_SPREAD = 0.10
CORNER_TEMPERATURE_COLD_K = 250.0
CORNER_TEMPERATURE_HOT_K = 340.0
CORNER_WORST_CASE_SCALE = 1.25

#: Service stream: N distinct jobs (grid j scaled by 1 + 0.01 j, so each
#: has its own content address) submitted P passes.
SERVICE_JOBS = 3 if TINY else 6
SERVICE_PASSES = 3


@functools.cache
def _lowpass():
    return sc_lowpass_system().system


def _corner_family():
    """16 corners: 4 capacitor corners x 4 intensity corners.

    Dynamics-major, so each of the 4 dynamics roots carries its 4
    intensity variants, each a scale of the root's kernel row.
    """
    lo = 1.0 - CORNER_CAP_SPREAD
    hi = 1.0 + CORNER_CAP_SPREAD
    dynamics = {
        "nom": {},
        "c1lo": {"c1": lo * SC_LOWPASS_C1},
        "c1hi": {"c1": hi * SC_LOWPASS_C1},
        "c2hi": {"c2": hi * SC_LOWPASS_C2},
    }
    intensities = {
        "cold": CORNER_TEMPERATURE_COLD_K / NOMINAL_TEMPERATURE_K,
        "nom": 1.0,
        "hot": CORNER_TEMPERATURE_HOT_K / NOMINAL_TEMPERATURE_K,
        "wc": CORNER_WORST_CASE_SCALE,
    }
    return ParameterGrid.cross(dynamics, intensities,
                               builder=sc_lowpass_system,
                               base_params=ScLowpassParams())


def _cold_sweep(grid, **kwargs):
    """A sweep on a fresh analyzer; the caller clears the registry."""
    analyzer = MftNoiseAnalyzer(_lowpass(), segments_per_phase=SEGMENTS)
    return analyzer.psd_sweep(grid, **kwargs)


def max_relative_difference(reference, candidate):
    """Worst |Δ| over finite points, relative to ``max |reference|``.

    Scale-relative, so a notch near zero does not blow the metric up;
    NaN masks must match exactly (a mismatch returns ``inf``).
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    finite = np.isfinite(reference)
    if (reference.shape != candidate.shape
            or not np.array_equal(finite, np.isfinite(candidate))):
        return float("inf")
    if not np.any(finite):
        return 0.0
    scale = float(np.max(np.abs(reference[finite])))
    delta = float(np.max(np.abs(candidate[finite] - reference[finite])))
    return delta / scale if scale else delta


@dataclass
class PairTiming:
    """Per-call seconds of the two sides of a gate.

    ``ratio`` is the baseline median over the candidate median: a
    speedup when the candidate is the fast path, a cost ratio when it
    is the cheaper variant (attribution).
    """

    candidate: list
    baseline: list

    def ratio(self):
        """Baseline median over candidate median."""
        return (float(np.median(self.baseline))
                / float(np.median(self.candidate)))

    def summary(self, label):
        parts = []
        for side, samples in (("candidate", self.candidate),
                              ("baseline", self.baseline)):
            q1, median, q3 = np.percentile(samples, [25, 50, 75]) * 1e3
            parts.append(f"{side} median {median:.1f} ms "
                         f"(IQR {q3 - q1:.1f} ms)")
        return (f"{label}: " + ", ".join(parts)
                + f", ratio {self.ratio():.2f} over {len(self.candidate)}"
                  " alternating pairs")


def time_pair(candidate, baseline, setup=None):
    """Time two callables in alternating order, ``REPEATS`` rounds.

    ``setup`` runs untimed before every call, so both sides start from
    the same cache state; so does a garbage collection, so neither side
    pays for the other's garbage.
    """
    timing = PairTiming(candidate=[], baseline=[])
    sides = ((candidate, timing.candidate), (baseline, timing.baseline))
    for round_ in range(REPEATS):
        for fn, samples in (sides if round_ % 2 == 0 else sides[::-1]):
            if setup is not None:
                setup()
            gc.collect()
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
    return timing


class TestNumericalEquivalence:
    @pytest.mark.parametrize("n_points", [64, 256])
    def test_spectral_batch_matches_reference(self, n_points):
        # The spectral kernel against the cold serial per-ω sweep, to
        # 1e-9.  Deviation is grid-size independent, so this runs in
        # tiny mode too.
        grid = _lowpass_grid(n_points)
        clear_sweep_contexts()
        reference = _cold_sweep(grid)
        clear_sweep_contexts()
        candidate = _cold_sweep(grid, solver="spectral-batch")
        rel = max_relative_difference(reference.psd, candidate.psd)
        assert rel <= SPECTRAL_REL_TOL, (
            f"max rel diff {rel:.3e} (tol {SPECTRAL_REL_TOL:.0e})")


class TestSpectralBatchGate:
    @skip_speed_if_tiny
    def test_spectral_beats_per_frequency_sweep(self, print_table):
        timing = time_pair(
            lambda: _cold_sweep(GRID_256, solver="spectral-batch"),
            lambda: _cold_sweep(GRID_256),
            setup=clear_sweep_contexts)
        print_table(timing.summary("spectral-batch vs per-ω mft, 256 pts"))
        assert timing.ratio() >= SPECTRAL_SPEEDUP, timing.summary(
            f"need >= {SPECTRAL_SPEEDUP}x")

    @skip_speed_if_tiny
    def test_one_block_beats_64_frequency_blocks(self, print_table):
        timing = time_pair(
            lambda: _cold_sweep(GRID_256, solver="spectral-batch"),
            lambda: _cold_sweep(GRID_256, solver="spectral-batch",
                                chunk_size=64),
            setup=clear_sweep_contexts)
        print_table(timing.summary(
            "one ω-block vs 64-frequency blocks, 256 pts"))
        assert timing.ratio() >= ONE_BLOCK_SPEEDUP, timing.summary(
            f"need >= {ONE_BLOCK_SPEEDUP}x")

    def test_one_block_is_bit_identical_to_64_frequency_blocks(self):
        clear_sweep_contexts()
        one = _cold_sweep(GRID_256, solver="spectral-batch",
                          attribute_sources=True)
        four = _cold_sweep(GRID_256, solver="spectral-batch",
                           attribute_sources=True, chunk_size=64)
        assert one.info["executor"]["n_chunks"] == 1
        assert one.psd.tobytes() == four.psd.tobytes()
        assert (one.budget.contributions.tobytes()
                == four.budget.contributions.tobytes())

    def test_nan_masks_and_failures_match_on_engineered_failures(self):
        # A sweep with injected non-finite frequencies must produce the
        # identical NaN mask and identical per-frequency failure records
        # through the batched kernel as through the per-ω path.
        analyzer = MftNoiseAnalyzer(_lowpass(), segments_per_phase=16)
        freqs = np.linspace(100.0, 12e3, 24)
        freqs[3] = np.inf
        freqs[11] = np.nan
        freqs[19] = -np.inf
        reference = analyzer.psd_sweep(freqs)
        spectral = analyzer.psd_sweep(freqs, solver="spectral-batch")
        assert np.array_equal(np.isnan(spectral.psd),
                              np.isnan(reference.psd))
        record = lambda f: (f.index, f.stage, f.error)  # noqa: E731
        assert ([record(f) for f in spectral.info["failures"]]
                == [record(f) for f in reference.info["failures"]])


class TestAttributionGates:
    """Per-source attribution (DESIGN.md §11): cost and identities.

    The cost gates compare cold sweeps of the 64-point grid: the
    attributed spectral-batch sweep against the unattributed one (same
    kernel), and against the attributed per-frequency sweep it claims
    to beat.  The identity gates assert attribution has no numerical
    side effects.
    """

    def _analyzer(self):
        clear_sweep_contexts()
        return MftNoiseAnalyzer(_lowpass(), segments_per_phase=SEGMENTS)

    @skip_speed_if_tiny
    def test_attributed_sweep_within_cost_gate(self, print_table):
        timing = time_pair(
            lambda: _cold_sweep(GRID_64, solver="spectral-batch"),
            lambda: _cold_sweep(GRID_64, solver="spectral-batch",
                                attribute_sources=True),
            setup=clear_sweep_contexts)
        print_table(timing.summary(
            "unattributed vs attributed spectral-batch, 64 pts"))
        assert timing.ratio() <= ATTRIBUTION_COST_RATIO, timing.summary(
            f"need <= {ATTRIBUTION_COST_RATIO}x")

    @skip_speed_if_tiny
    def test_stacked_kernel_beats_per_frequency_attribution(
            self, print_table):
        timing = time_pair(
            lambda: _cold_sweep(GRID_64, solver="spectral-batch",
                                attribute_sources=True),
            lambda: _cold_sweep(GRID_64, attribute_sources=True),
            setup=clear_sweep_contexts)
        print_table(timing.summary(
            "attributed spectral-batch vs attributed per-ω mft, 64 pts"))
        assert timing.ratio() > 1.0, timing.summary("need > 1x")

    def test_total_psd_bit_identical_with_and_without_attribution(self):
        analyzer = self._analyzer()
        plain = analyzer.psd_sweep(GRID_64)
        attributed = analyzer.psd_sweep(GRID_64, attribute_sources=True)
        assert np.array_equal(plain.psd, attributed.psd)
        assert attributed.info["budget"] is not None

    def test_headline_budget_conserves(self):
        analyzer = self._analyzer()
        for solver in (None, "spectral-batch"):
            result = analyzer.psd_sweep(GRID_64, solver=solver,
                                        attribute_sources=True)
            result.budget.check_conservation()


class TestCornerBatchGate:
    """The parameter-batched corner solve (DESIGN.md §12).

    The reference sweeps each of the 16 corners on its own: its dynamics
    root, built exactly as the batched path builds it, swept through
    the spectral kernel and scaled by the corner's intensity.  The
    speed gate first registers the family's dynamics roots under its
    family hash, so both sides run over the same warm roots: building
    them is identical work on either path.  The ratio with every root
    built cold on each call is printed next to it, not gated.
    """

    def _corners(self, family):
        """``(root analyzer, intensity)`` of each corner, in grid order."""
        corners = [None] * len(family)
        for root in _build_roots(_lowpass(), family, 0, SEGMENTS, None):
            for m, alpha in zip(root.corners, root.scales):
                corners[m] = (root.analyzer, alpha)
        return corners

    def _register_roots(self, family):
        """Register each dynamics root where both sides look it up."""
        for index in range(len(family)):
            sweep_context_for(family.build_model(index).system, SEGMENTS,
                              family=family.family_hash())

    def _independent(self, family, freqs):
        return np.stack([
            alpha * analyzer.psd_sweep(freqs, solver="spectral-batch").psd
            for analyzer, alpha in self._corners(family)])

    @skip_speed_if_tiny
    def test_corner_batch_beats_independent_sweeps(self, print_table):
        family = _corner_family()

        def batched():
            return corner_psd_sweep(_lowpass(), family, GRID_64,
                                    segments_per_phase=SEGMENTS)

        def independent():
            return self._independent(family, GRID_64)

        cold = time_pair(batched, independent, setup=clear_sweep_contexts)
        print_table(cold.summary(
            f"corner batch vs {len(family)} independent sweeps, 64 pts, "
            "cold roots (not gated)"))
        clear_sweep_contexts()
        self._register_roots(family)
        batched()
        independent()
        timing = time_pair(batched, independent)
        clear_sweep_contexts()
        print_table(timing.summary(
            f"corner batch vs {len(family)} independent sweeps, 64 pts"))
        assert timing.ratio() >= CORNER_SPEEDUP_FLOOR, timing.summary(
            f"need >= {CORNER_SPEEDUP_FLOOR}x")

    @pytest.mark.parametrize("attributed", [False, True])
    def test_corner_batch_deviation_within_budget(self, attributed):
        family = _corner_family()
        clear_sweep_contexts()
        batched = corner_psd_sweep(_lowpass(), family, GRID_64,
                                   segments_per_phase=SEGMENTS,
                                   attribute_sources=attributed)
        rel = max_relative_difference(self._independent(family, GRID_64),
                                      batched.values)
        assert rel <= PARAM_BATCH_EQUIVALENCE_RTOL, (
            f"{rel:.3e} (tol {PARAM_BATCH_EQUIVALENCE_RTOL:.0e})")

    def test_per_corner_failures_match_independent_sweeps(self):
        # Injected non-finite frequencies must NaN exactly the same
        # (corner, frequency) cells — and record the same per-corner
        # failure stages — through the flattened batched axis as
        # through M independent per-corner sweeps.
        family = _corner_family()
        freqs = GRID_64.copy()
        freqs[1] = np.inf
        freqs[3] = np.nan
        clear_sweep_contexts()
        batched = corner_psd_sweep(_lowpass(), family, freqs,
                                   segments_per_phase=SEGMENTS)
        record = lambda f: (f.index, f.stage)  # noqa: E731
        for m, (analyzer, _alpha) in enumerate(self._corners(family)):
            reference = analyzer.psd_sweep(freqs, solver="spectral-batch")
            name = family.names[m]
            assert np.array_equal(np.isnan(batched.values[m]),
                                  np.isnan(reference.psd)), name
            assert ([record(f) for f in batched.failures.get(name, [])]
                    == [record(f) for f in reference.info["failures"]]), name


def _service_stream():
    system = _lowpass()
    specs = [JobSpec(system, GRID_64 * (1.0 + 0.01 * j),
                     segments_per_phase=SEGMENTS)
             for j in range(SERVICE_JOBS)]
    return specs * SERVICE_PASSES


def _cold_submit_loop(stream):
    """N·P one-off analyses: a fresh registry and queue per submission."""
    results = []
    for spec in stream:
        clear_sweep_contexts()
        with JobQueue() as queue:
            results.append(queue.submit(spec).wait(timeout=600.0))
    return results


def _store_queue(stream):
    """One long-lived serial queue: duplicates are store hits."""
    with JobQueue() as queue:
        handles = [queue.submit(spec) for spec in stream]
        return [handle.wait(timeout=600.0) for handle in handles]


class TestServiceGates:
    """The job-queue service (DESIGN.md §13) on a duplicate-heavy stream.

    The long-lived serial queue computes each distinct job once and
    serves every duplicate from its content-addressed store; the cold
    loop recomputes every submission.
    """

    @pytest.fixture(scope="class")
    def streams(self):
        stream = _service_stream()
        clear_sweep_contexts()
        cold = _cold_submit_loop(stream)
        clear_sweep_contexts()
        return cold, _store_queue(stream)

    @skip_speed_if_tiny
    def test_store_queue_beats_cold_submit_loop(self, print_table):
        stream = _service_stream()
        timing = time_pair(lambda: _store_queue(stream),
                           lambda: _cold_submit_loop(stream),
                           setup=clear_sweep_contexts)
        print_table(timing.summary(
            f"store queue vs cold loop, {SERVICE_JOBS} jobs x "
            f"{SERVICE_PASSES} passes"))
        assert timing.ratio() >= SERVICE_SPEEDUP, timing.summary(
            f"need >= {SERVICE_SPEEDUP}x")

    def test_duplicates_served_from_store(self, streams):
        cold, stored = streams
        assert not any(job.served_from_store for job in cold)
        hits = sum(job.served_from_store for job in stored)
        assert hits == SERVICE_JOBS * (SERVICE_PASSES - 1)

    def test_store_served_results_bit_identical(self, streams):
        cold, stored = streams
        for recomputed, served in zip(cold, stored):
            assert (served.result.psd.tobytes()
                    == recomputed.result.psd.tobytes())


class TestObservabilityGates:
    """The repro.obs layer: cheap when off, complete when on."""

    def test_disabled_recorder_overhead_under_two_percent(self,
                                                          print_table):
        # The no-op recorder costs one attribute check plus one constant
        # method call per instrumented event.  Measure that unit cost,
        # count the events an instrumented sweep actually emits (spans +
        # counter bumps + histogram samples, from an enabled run), and
        # require events x unit cost < 2% of the sweep's wall-clock.
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(
            _lowpass(), segments_per_phase=SEGMENTS, recorder=rec)
        t0 = time.perf_counter()
        analyzer.psd(GRID_64)
        wall = time.perf_counter() - t0
        export = rec.export()
        events = (len(export["spans"])
                  + sum(export["counters"].values())
                  + sum(len(v) for v in export["histograms"].values()))
        assert events > 0

        reps = 10000
        t0 = time.perf_counter()
        for _ in range(reps):
            with NULL_RECORDER.span("x", a=1):
                pass
            NULL_RECORDER.count("c")
            NULL_RECORDER.observe("h", 0.0)
        unit = (time.perf_counter() - t0) / (3 * reps)

        overhead = events * unit
        print_table(f"disabled recorder: {events} events, "
                    f"{overhead / wall:.3%} of a {wall * 1e3:.1f} ms sweep")
        assert overhead < 0.02 * wall, (
            f"{events} events x {unit * 1e9:.0f} ns = "
            f"{overhead * 1e3:.3f} ms against a {wall * 1e3:.1f} ms "
            f"sweep ({overhead / wall:.1%}, need < 2%)")

    def test_trace_attributes_95_percent_of_wall_clock(self, print_table):
        # >= 95% of the sweep root's wall-clock must be covered by its
        # direct children -- untraced gaps between spans stay under 5%.
        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(
            _lowpass(), segments_per_phase=SEGMENTS, recorder=rec)
        analyzer.psd_sweep(GRID_64)
        fraction = attributed_fraction(rec, "mft.sweep")
        print_table(f"trace coverage: {fraction:.2%}")
        assert fraction >= 0.95, (
            f"only {fraction:.1%} of the sweep wall-clock is attributed "
            "to named spans")
        assert rec.is_balanced()
