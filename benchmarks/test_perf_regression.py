"""Benchmark-regression gate: the fast sweep paths must stay fast.

Runs the :mod:`repro.perf` workload suite, re-emits ``BENCH_sweep.json``
at the repository root, and asserts the acceptance criteria of the
performance layer:

* the artifact carries >= 3 workloads and passes its own schema check;
* every configuration matches the serial-uncached reference (a cold
  serial sweep on a fresh sweep context) to <= 1e-12 relative on all
  finite points (1e-9 for the spectral kernel's reordered arithmetic);
* on the dense 256-point SC low-pass sweep, the spectral-batch kernel
  is >= 2x faster than the serial-uncached reference;
* per-source attribution costs <= 2.5x the unattributed sweep through
  the stacked spectral kernel, leaves the total PSD bit-identical, and
  produces bit-identical budgets under serial and process execution;
* the parameter-batched corner solve is >= 3x faster than 16
  independent cached spectral sweeps of the same family at <= 1e-9
  relative deviation (DESIGN.md §12);
* the 2-worker pooled service (long-lived queue + content-addressed
  result store) moves the duplicate-heavy submission stream >= 1.5x
  faster than the cold serial submit loop, with every store-served
  duplicate bit-identical to its cold recompute (DESIGN.md §13).

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py``
(the benchmarks tree is intentionally outside the tier-1 ``testpaths``).
Pass ``--tiny`` semantics by setting ``REPRO_BENCH_TINY=1`` — used by
the CI ``bench-smoke`` job, which checks the machinery and the schema
but skips the speedup assertion (tiny grids are dispatch-dominated).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.perf import (
    BENCH_FILENAME,
    append_history,
    run_suite,
    validate_bench,
)
from repro.tolerances import (
    CORNER_SPEEDUP_FLOOR,
    PARAM_BATCH_EQUIVALENCE_RTOL,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
#: The sweep the observability and chaos gates time.
SWEEP_WORKLOAD = "sc-lowpass-sweep-64"
EQUIVALENCE_REL_TOL = 1e-12

SPECTRAL_WORKLOAD = "sc-lowpass-sweep-256"
SPECTRAL_SPEEDUP = 2.0
#: The spectral kernel reorders floating-point work (batched LU, scalar
#: φ-series) relative to the per-ω reference; the exact-reorder paths
#: stay at 1e-12.
SPECTRAL_REL_TOL = 1e-9
SPECTRAL_VARIANTS = ("serial-spectral", "parallel-spectral")

ATTRIBUTION_WORKLOAD = "sc-lowpass-attribution"
#: Acceptance gate: a fully attributed sweep (all noise sources) through
#: the stacked spectral kernel must cost <= 2.5x the unattributed sweep
#: of the same grid — context reuse plus multi-RHS batching, not
#: n_sources x.  (Measured: ~0.7x, i.e. attribution through the batched
#: kernel undercuts the per-frequency unattributed path outright.)
ATTRIBUTION_COST_RATIO = 2.5

CORNER_WORKLOAD = "sc-lowpass-corners"

SERVICE_WORKLOAD = "sc-service-throughput"
SERVICE_LATENCY_WORKLOAD = "sc-service-latency"
#: Acceptance gate: the 2-worker pooled service must move the batch
#: submission stream >= 1.5x faster than the cold serial submit loop.
#: (Measured: ~2.4x — each distinct job solves once, duplicates are
#: content-address hits served without a kernel solve.)
SERVICE_SPEEDUP = 1.5

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")


@pytest.fixture(scope="module")
def bench_data():
    """Run the suite once and write the artifact all tests inspect.

    Goes through :func:`append_history` so the recorded artifact keeps
    its perf trajectory across regenerations instead of overwriting it.
    """
    data = run_suite(tiny=TINY)
    path = REPO_ROOT / BENCH_FILENAME
    append_history(data, path, git_sha="bench-test")
    path.write_text(json.dumps(data, indent=2) + "\n")
    return data


def _variant(entry, name):
    for variant in entry["variants"]:
        if variant["variant"] == name:
            return variant
    raise AssertionError(
        f"{entry['workload']} records no {name!r} variant: "
        f"{[v['variant'] for v in entry['variants']]}")


def _workload(data, name):
    for entry in data["workloads"]:
        if entry["workload"] == name:
            return entry
    raise AssertionError(
        f"suite records no workload {name!r}: "
        f"{[e['workload'] for e in data['workloads']]}")


class TestBenchArtifact:
    def test_schema_valid(self, bench_data):
        validate_bench(bench_data)

    def test_at_least_three_workloads(self, bench_data):
        assert len(bench_data["workloads"]) >= 3

    def test_artifact_written_at_repo_root(self, bench_data):
        path = REPO_ROOT / BENCH_FILENAME
        assert path.exists()
        validate_bench(json.loads(path.read_text()))

    def test_every_variant_records_cache_hit_counts(self, bench_data):
        for entry in bench_data["workloads"]:
            for variant in entry["variants"]:
                if variant["cache"]:
                    stats = variant["cache_stats"]
                    assert stats is not None, variant["variant"]
                    assert stats["total_hits"] > 0, variant["variant"]


class TestNumericalEquivalence:
    def test_all_variants_match_reference(self, bench_data):
        # The harness computes the worst relative deviation of each
        # configuration against the serial-uncached run of the same
        # workload; none may exceed its equivalence tolerance — 1e-12
        # for the exact-reorder paths, 1e-9 for the spectral kernel.
        for entry in bench_data["workloads"]:
            for variant in entry["variants"]:
                rel = variant["max_rel_diff_vs_serial_uncached"]
                tol = (SPECTRAL_REL_TOL
                       if variant["solver"] in ("spectral-batch",
                                                "param-batch")
                       else EQUIVALENCE_REL_TOL)
                assert rel <= tol, (
                    f"{entry['workload']}/{variant['variant']}: "
                    f"max rel diff {rel:.3e} (tol {tol:.0e})")


class TestSpectralBatchGate:
    """Acceptance gates of the frequency-batched spectral kernel."""

    @pytest.mark.skipif(
        TINY, reason="tiny grids are dispatch-dominated; speedup is "
                     "asserted on the full workloads")
    def test_spectral_beats_cached_serial_on_dense_sweep(self, bench_data):
        # The kernel must earn its keep against the cold per-frequency
        # serial sweep (same fresh context, same cache state) on the
        # dense 256-point SC low-pass sweep.
        entry = _workload(bench_data, SPECTRAL_WORKLOAD)
        serial = _variant(entry, "serial-uncached")["wall_seconds"]
        spectral = _variant(entry, "serial-spectral")["wall_seconds"]
        assert spectral > 0.0
        speedup = serial / spectral
        assert speedup >= SPECTRAL_SPEEDUP, (
            f"spectral-batch only {speedup:.2f}x vs serial-uncached on "
            f"{SPECTRAL_WORKLOAD} (need >= {SPECTRAL_SPEEDUP}x)")

    def test_spectral_deviation_within_budget(self, bench_data):
        # Runs in tiny mode too: deviation is grid-size independent.
        for entry in bench_data["workloads"]:
            if entry["kind"] != "sweep":
                continue
            for name in SPECTRAL_VARIANTS:
                rel = _variant(entry, name)[
                    "max_rel_diff_vs_serial_uncached"]
                assert rel <= SPECTRAL_REL_TOL, (
                    f"{entry['workload']}/{name}: {rel:.3e}")

    def test_nan_masks_and_failures_match_on_engineered_failures(self):
        # A sweep with injected non-finite frequencies must produce the
        # identical NaN mask and identical per-frequency failure records
        # through the batched kernel as through the per-ω path.
        from repro.circuits import sc_lowpass_system
        from repro.mft.engine import MftNoiseAnalyzer

        analyzer = MftNoiseAnalyzer(sc_lowpass_system().system,
                                    segments_per_phase=16)
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
    """Acceptance gates of per-source attribution (DESIGN.md §11).

    The cost gate compares the recommended attributed configuration
    (``spectral-attributed`` — all noise sources as stacked RHS rows
    through the batched kernel) against the unattributed cold serial
    sweep (``serial-uncached``) of the same grid; the identity gates assert that attribution is
    free of numerical side effects: the total PSD is bit-identical with
    and without it, serial and process execution produce bit-identical
    budgets, and the budget rows sum to the total within the
    conservation tolerance.
    """

    def _workload(self):
        from repro.perf.workloads import (
            default_workloads,
            tiny_workloads,
            workload_by_name,
        )
        pool = tiny_workloads() if TINY else default_workloads()
        return workload_by_name(ATTRIBUTION_WORKLOAD, pool)

    def _analyzer(self):
        from repro.mft.context import clear_sweep_contexts
        from repro.mft.engine import MftNoiseAnalyzer

        workload = self._workload()
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(
            workload.build(),
            segments_per_phase=workload.segments_per_phase)
        return analyzer, workload.frequencies()

    @pytest.mark.skipif(
        TINY, reason="tiny grids are dispatch-dominated; the cost gate "
                     "is asserted on the full workloads")
    def test_attributed_sweep_within_cost_gate(self, bench_data):
        entry = _workload(bench_data, ATTRIBUTION_WORKLOAD)
        unattributed = _variant(entry, "serial-uncached")["wall_seconds"]
        attributed = _variant(entry, "spectral-attributed")["wall_seconds"]
        assert unattributed > 0.0
        ratio = attributed / unattributed
        assert ratio <= ATTRIBUTION_COST_RATIO, (
            f"attributed sweep costs {ratio:.2f}x the unattributed one "
            f"(need <= {ATTRIBUTION_COST_RATIO}x)")

    @pytest.mark.skipif(
        TINY, reason="tiny grids are dispatch-dominated; the cost gate "
                     "is asserted on the full workloads")
    def test_stacked_kernel_beats_per_frequency_attribution(
            self, bench_data):
        # The per-frequency attributed path pays one extra solve per
        # source; the stacked multi-RHS kernel must beat it, or the
        # "fast path" claim in DESIGN.md §11 is stale.
        entry = _workload(bench_data, ATTRIBUTION_WORKLOAD)
        per_freq = _variant(entry, "serial-attributed")["wall_seconds"]
        stacked = _variant(entry, "spectral-attributed")["wall_seconds"]
        assert stacked < per_freq

    def test_total_psd_bit_identical_with_and_without_attribution(self):
        analyzer, freqs = self._analyzer()
        plain = analyzer.psd_sweep(freqs)
        attributed = analyzer.psd_sweep(freqs, attribute_sources=True)
        assert np.array_equal(plain.psd, attributed.psd)
        assert attributed.info["budget"] is not None

    def test_budget_identical_serial_vs_process(self):
        analyzer, freqs = self._analyzer()
        serial = analyzer.psd_sweep(freqs, attribute_sources=True)
        process = analyzer.psd_sweep(freqs, parallel="process",
                                     max_workers=2,
                                     attribute_sources=True)
        assert np.array_equal(serial.psd, process.psd)
        assert serial.budget.labels == process.budget.labels
        assert np.array_equal(serial.budget.total, process.budget.total)
        assert np.array_equal(serial.budget.contributions,
                              process.budget.contributions)

    def test_headline_budget_conserves(self):
        analyzer, freqs = self._analyzer()
        for solver in (None, "spectral-batch"):
            result = analyzer.psd_sweep(freqs, solver=solver,
                                        attribute_sources=True)
            result.budget.check_conservation()


class TestCornerBatchGate:
    """Acceptance gates of the parameter-batched corner solve (§12).

    The headline claim: a 16-corner family over the 64-point SC
    low-pass grid solves >= 3x faster through ``corner_psd_sweep`` than
    through 16 independent cached spectral sweeps of the same members,
    while every corner's PSD stays within 1e-9 relative of its
    independent sweep (measured: ~2e-15 — the batched path solves the
    identical per-group systems, merely stacked).
    """

    @pytest.mark.skipif(
        TINY, reason="tiny grids are dispatch-dominated; speedup is "
                     "asserted on the full workloads")
    def test_corner_batch_beats_independent_sweeps(self, bench_data):
        entry = _workload(bench_data, CORNER_WORKLOAD)
        variant = _variant(entry, "corner-batch")
        speedup = variant["speedup_vs_serial_uncached"]
        assert speedup >= CORNER_SPEEDUP_FLOOR, (
            f"corner-batch only {speedup:.2f}x vs {variant['n_params']} "
            f"independent cached spectral sweeps "
            f"(need >= {CORNER_SPEEDUP_FLOOR}x)")

    def test_corner_batch_deviation_within_budget(self, bench_data):
        # Runs in tiny mode too: deviation is grid-size independent.
        entry = _workload(bench_data, CORNER_WORKLOAD)
        for name in ("corner-batch", "corner-batch-attributed"):
            rel = _variant(entry, name)["max_rel_diff_vs_serial_uncached"]
            assert rel <= PARAM_BATCH_EQUIVALENCE_RTOL, (
                f"{CORNER_WORKLOAD}/{name}: {rel:.3e} "
                f"(tol {PARAM_BATCH_EQUIVALENCE_RTOL:.0e})")

    def test_n_params_recorded_per_variant(self, bench_data):
        # Schema v5: every variant carries the parameter-axis width —
        # M for the corners kind, 1 everywhere else.
        for entry in bench_data["workloads"]:
            for variant in entry["variants"]:
                if entry["kind"] == "corners":
                    assert variant["n_params"] > 1, variant["variant"]
                else:
                    assert variant["n_params"] == 1, variant["variant"]

    def test_per_corner_failures_match_independent_sweeps(self):
        # Injected non-finite frequencies must NaN exactly the same
        # (corner, frequency) cells — and record the same per-corner
        # failure stages — through the flattened batched axis as
        # through M independent member sweeps.
        from repro.mft.context import clear_sweep_contexts
        from repro.mft.corners import _build_members, corner_psd_sweep
        from repro.perf.workloads import (
            default_workloads,
            tiny_workloads,
            workload_by_name,
        )

        pool = tiny_workloads() if TINY else default_workloads()
        workload = workload_by_name(CORNER_WORKLOAD, pool)
        family = workload.corner_family()
        system = workload.build()
        freqs = workload.frequencies().copy()
        freqs[1] = np.inf
        freqs[3] = np.nan
        clear_sweep_contexts()
        batched = corner_psd_sweep(
            system, family, freqs,
            segments_per_phase=workload.segments_per_phase)
        members = _build_members(system, family, 0,
                                 workload.segments_per_phase, None, True)
        record = lambda f: (f.index, f.stage)  # noqa: E731
        for m, member in enumerate(members):
            reference = member.psd_sweep(freqs, solver="spectral-batch")
            name = family.names[m]
            assert np.array_equal(np.isnan(batched.values[m]),
                                  np.isnan(reference.psd)), name
            assert ([record(f) for f in batched.failures.get(name, [])]
                    == [record(f) for f in reference.info["failures"]]), name


class TestServiceGates:
    """Acceptance gates of the service layer (DESIGN.md §13).

    The submission stream is N distinct jobs repeated P passes.  The
    throughput gate: one long-lived 2-worker pooled ``JobQueue``
    (content-addressed store armed) must move the stream >= 1.5x
    faster than the cold serial submit loop that recomputes every
    submission.  The parity gates: every duplicate is served from the
    store (exactly ``N*(P-1)`` hits), and the stacked per-submission
    PSDs — store-served duplicates included — are bit-identical to
    the cold recomputes (the variant's equivalence column).
    """

    @pytest.mark.skipif(
        TINY, reason="tiny grids are dispatch-dominated; speedup is "
                     "asserted on the full workloads")
    def test_pooled_service_beats_serial_submit_loop(self, bench_data):
        entry = _workload(bench_data, SERVICE_WORKLOAD)
        variant = _variant(entry, "pool-2")
        speedup = variant["speedup_vs_serial_uncached"]
        assert speedup >= SERVICE_SPEEDUP, (
            f"pooled service only {speedup:.2f}x vs the serial submit "
            f"loop on {SERVICE_WORKLOAD} (need >= {SERVICE_SPEEDUP}x)")

    def test_duplicates_served_from_store(self, bench_data):
        # Every submission past the first pass must be a store hit on
        # the long-lived variants — and none on the cold loop, whose
        # per-submission queues cannot share a store.
        for name in (SERVICE_WORKLOAD, SERVICE_LATENCY_WORKLOAD):
            entry = _workload(bench_data, name)
            for variant in entry["variants"]:
                block = variant["service"]
                expected = (0 if variant["variant"] == "serial-uncached"
                            else block["n_jobs"]
                            * (block["n_passes"] - 1))
                assert block["store_hits"] == expected, (
                    name, variant["variant"], block)

    def test_store_served_results_bit_identical(self, bench_data):
        # The equivalence column stacks every per-submission PSD, so a
        # store round-trip that loses bits anywhere shows up here.
        for name in (SERVICE_WORKLOAD, SERVICE_LATENCY_WORKLOAD):
            entry = _workload(bench_data, name)
            for variant in entry["variants"]:
                rel = variant["max_rel_diff_vs_serial_uncached"]
                assert rel == 0.0, (name, variant["variant"], rel)

    def test_latency_percentiles_recorded_and_ordered(self, bench_data):
        for name in (SERVICE_WORKLOAD, SERVICE_LATENCY_WORKLOAD):
            entry = _workload(bench_data, name)
            for variant in entry["variants"]:
                block = variant["service"]
                assert 0.0 < block["latency_p50_s"] \
                    <= block["latency_p99_s"], (name, variant["variant"])
                assert block["throughput_jobs_per_s"] > 0.0


class TestObservabilityGates:
    """Acceptance gates of the repro.obs layer (schema v3)."""

    def test_every_variant_records_stages(self, bench_data):
        # Schema v3: each timed variant carries a non-empty per-span
        # seconds breakdown, always including the sweep root.
        assert bench_data["schema_version"] == 6
        for entry in bench_data["workloads"]:
            for variant in entry["variants"]:
                stages = variant["stages"]
                assert stages, (entry["workload"], variant["variant"])
                root = ("mft.solve" if entry["kind"] == "adaptive"
                        else "mft.sweep")
                assert root in stages, (entry["workload"],
                                        variant["variant"],
                                        sorted(stages))

    def test_disabled_recorder_overhead_under_two_percent(self):
        # The no-op recorder costs one attribute check plus one constant
        # method call per instrumented event.  Measure that unit cost,
        # count the events an instrumented sweep actually emits (spans +
        # counter bumps + histogram samples, from an enabled run), and
        # require events x unit cost < 2% of the sweep's wall-clock.
        from repro.mft.context import clear_sweep_contexts
        from repro.mft.engine import MftNoiseAnalyzer
        from repro.obs import NULL_RECORDER, Recorder
        from repro.perf.workloads import (
            default_workloads,
            tiny_workloads,
            workload_by_name,
        )

        pool = tiny_workloads() if TINY else default_workloads()
        workload = workload_by_name(SWEEP_WORKLOAD, pool)
        system = workload.build()
        freqs = workload.frequencies()

        clear_sweep_contexts()
        rec = Recorder()
        analyzer = MftNoiseAnalyzer(
            system, segments_per_phase=workload.segments_per_phase,
            recorder=rec)
        t0 = time.perf_counter()
        analyzer.psd(freqs)
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
        assert overhead < 0.02 * wall, (
            f"{events} events x {unit * 1e9:.0f} ns = "
            f"{overhead * 1e3:.3f} ms against a {wall * 1e3:.1f} ms "
            f"sweep ({overhead / wall:.1%}, need < 2%)")

    def test_trace_attributes_95_percent_of_wall_clock(self):
        # >= 95% of the sweep root's wall-clock must be covered by its
        # direct children -- untraced gaps between spans stay under 5%.
        from repro.mft.context import clear_sweep_contexts
        from repro.mft.engine import MftNoiseAnalyzer
        from repro.obs import Recorder, attributed_fraction
        from repro.perf.workloads import (
            default_workloads,
            tiny_workloads,
            workload_by_name,
        )

        pool = tiny_workloads() if TINY else default_workloads()
        workload = workload_by_name(SWEEP_WORKLOAD, pool)
        system = workload.build()
        freqs = workload.frequencies()
        for parallel in (None, "process"):
            clear_sweep_contexts()
            rec = Recorder()
            analyzer = MftNoiseAnalyzer(
                system, segments_per_phase=workload.segments_per_phase,
                recorder=rec)
            analyzer.psd_sweep(freqs, parallel=parallel)
            fraction = attributed_fraction(rec, "mft.sweep")
            assert fraction >= 0.95, (
                f"parallel={parallel!r}: only {fraction:.1%} of the "
                "sweep wall-clock is attributed to named spans")
            assert rec.is_balanced()


class TestChaosGates:
    """Acceptance gates of the resilience layer (DESIGN.md §10).

    Injected faults are allowed to cost retries, never numbers: a sweep
    that recovers from 20% transient solve failures plus a hard worker
    crash must be *bit-identical* to the fault-free sweep, and a sweep
    killed halfway then resumed from its checkpoint must be bit
    -identical to an uninterrupted one.  The disabled injection seams
    must cost < 2% of sweep wall-clock, like the disabled recorder.
    """

    CHUNK = 2 if TINY else 8

    def _workload(self):
        from repro.perf.workloads import (
            default_workloads,
            tiny_workloads,
            workload_by_name,
        )
        pool = tiny_workloads() if TINY else default_workloads()
        return workload_by_name(SWEEP_WORKLOAD, pool)

    @pytest.mark.parametrize("backend", ["process"])
    def test_faulted_sweep_is_bit_identical(self, backend):
        from repro.perf.chaos import run_chaos

        document = run_chaos(self._workload(), backend=backend, seed=3,
                             chunk_size=self.CHUNK, max_workers=2)
        check = document["checks"][0]
        assert check["check"] == "fault-recovery"
        # The plan must actually have injected: transient retries plus
        # at least one hard worker death.
        assert check["n_retries"] >= 1
        assert check["n_worker_crashes"] >= 1
        assert check["n_chunks_failed"] == 0
        assert check["bit_identical"], (
            f"{backend}: sweep recovered from injected faults with "
            "different bits")

    def test_killed_sweep_resumes_bit_identical(self, tmp_path):
        from repro.perf.chaos import run_chaos

        document = run_chaos(self._workload(), backend="serial", seed=3,
                             chunk_size=self.CHUNK,
                             checkpoint_dir=tmp_path / "ckpt")
        check = document["checks"][1]
        assert check["check"] == "kill-resume"
        assert check["killed"], "the kill plan never fired"
        assert check["n_chunks_resumed"] >= 1
        assert check["bit_identical"], (
            "resumed sweep differs from the uninterrupted one")

    def test_disabled_injection_overhead_under_two_percent(
            self, monkeypatch):
        # Count the seam invocations of a real sweep (by patching the
        # seam at every import site), then require count x the unit
        # cost of a disabled fire() < 2% of the unpatched sweep wall.
        from repro.linalg import checked
        from repro.mft import engine as engine_mod
        from repro.mft import executor as executor_mod
        from repro.mft.context import clear_sweep_contexts
        from repro.mft.engine import MftNoiseAnalyzer
        from repro.resilience import faults

        workload = self._workload()
        system = workload.build()
        freqs = workload.frequencies()

        events = {"n": 0}

        def counting_fire(site, **key):
            events["n"] += 1
            faults.fire(site, **key)

        monkeypatch.setattr(checked, "_inject_fault", counting_fire)
        monkeypatch.setattr(engine_mod, "_inject_fault", counting_fire)
        monkeypatch.setattr(executor_mod, "fire", counting_fire)
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(
            system, segments_per_phase=workload.segments_per_phase)
        analyzer.psd_sweep(freqs, chunk_size=self.CHUNK)
        monkeypatch.undo()
        assert events["n"] >= freqs.size

        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(
            system, segments_per_phase=workload.segments_per_phase)
        t0 = time.perf_counter()
        analyzer.psd_sweep(freqs, chunk_size=self.CHUNK)
        wall = time.perf_counter() - t0

        reps = 100000
        t0 = time.perf_counter()
        for _ in range(reps):
            faults.fire("mft.solve", frequency=1.0)
        unit = (time.perf_counter() - t0) / reps

        overhead = events["n"] * unit
        assert overhead < 0.02 * wall, (
            f"{events['n']} seam calls x {unit * 1e9:.0f} ns = "
            f"{overhead * 1e3:.3f} ms against a {wall * 1e3:.1f} ms "
            f"sweep ({overhead / wall:.1%}, need < 2%)")
