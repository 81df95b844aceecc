"""Benchmark harness: time the sweep workloads, emit ``BENCH_sweep.json``.

For every workload the harness times a matrix of configurations —
serial/parallel dispatch × per-frequency/spectral-batch solver —
always from a *cold* cache (the context registry is cleared first, so
every analyzer starts from a fresh
:class:`~repro.mft.context.SweepContext`), and the recorded wall time
honestly includes building the frequency-independent work. Each
variant is compared numerically against the serial-uncached reference
(a cold serial ``mft`` sweep) of the same workload; the worst relative
deviation over the finite points is recorded next to the speedup, so
the perf trajectory can never silently trade correctness for wall
clock.

The JSON schema (validated by :func:`validate_bench`, checked in CI)::

    {
      "schema_version": 6,
      "suite": "sweep",
      "generated_at": "2026-01-01T00:00:00Z",
      "tiny": false,
      "workloads": [
        {
          "workload": "sc-lowpass-sweep-64",
          "description": "...",
          "kind": "sweep",
          "n_points": 64,
          "variants": [
            {
              "variant": "serial-uncached",
              "backend": "serial",
              "cache": true,
              "solver": null,
              "attributed": false,
              "wall_seconds": 0.37,
              "n_points": 64,
              "points_per_second": 172.0,
              "cache_stats": {"hits": {...}, "total_hits": ..., ...},
              "stages": {"mft.sweep": 0.36, "mft.solve": 0.34, ...},
              "speedup_vs_serial_uncached": 1.0,
              "max_rel_diff_vs_serial_uncached": 0.0
            }, ...
          ]
        }, ...
      ],
      "history": [
        {
          "git_sha": "abc1234",
          "timestamp": "2026-01-01T00:00:00Z",
          "workloads": {
            "sc-lowpass-sweep-64": {"serial-uncached": 0.37, ...}
          }
        }, ...
      ]
    }

Schema v2 added the per-variant ``solver`` axis (``null`` for the per
-frequency path, ``"spectral-batch"`` for the frequency-batched kernel)
and the append-only ``history`` list: :func:`append_history` carries the
prior artifact's history forward and appends one entry per recorded run,
so ``BENCH_sweep.json`` preserves the perf trajectory across commits
instead of overwriting it.

Schema v3 adds the per-variant ``stages`` block: every timed run now
attaches a :class:`~repro.obs.Recorder` and reports cumulative seconds
per named span (:func:`repro.obs.stage_totals`), so a wall-clock
regression can be localised to eigenbasis construction versus the
batched solve versus dispatch overhead without rerunning anything.
History entries are unchanged — pre-v3 history carries forward as-is.

Schema v4 adds the ``"attribution"`` workload kind and the per-variant
``attributed`` flag: attribution workloads time the per-source PSD
decomposition (``attribute_sources=``, DESIGN.md §11) against the plain
sweep on the same grid, so the attributed/unattributed cost ratio is
part of the recorded trajectory and gated in
``benchmarks/test_perf_regression.py``.

Schema v5 adds the ``"corners"`` workload kind and the per-variant
``n_params`` field (the parameter-axis width ``M``; ``1`` for every
non-corner variant).  Corner workloads time the parameter-batched
corner sweep (``corner_psd_sweep``, DESIGN.md §12) against its
reference: the same M member analyzers swept *independently* through
the frequency-batched spectral kernel — "M independent cached spectral
sweeps", the baseline the corner-batch acceptance gate speaks of.  The
recorded ``values`` of a corners variant are the stacked ``(M, K)``
per-corner PSDs, so the equivalence column bounds the whole family at
once.  History entries are unchanged.

Schema v6 adds the ``"service"`` workload kind and the per-variant
``service`` block: service workloads push a submission stream — N
distinct sweep jobs (distinct grids, hence distinct content
addresses) repeated P passes — through the :mod:`repro.service` layer
and record stream throughput (jobs/s), per-job latency percentiles
(p50/p99 from stream start), and result-store hit counts.  The cold
serial submit loop recomputes every submission; the long-lived
service variants compute each distinct job once and serve duplicates
from the content-addressed store.  The recorded ``values`` are the
stacked ``(N·P, K)`` per-submission PSDs, so the equivalence column
doubles as the batch-parity check: store-served duplicates and
pool-sharded sweeps must reproduce independent cold runs
bit-for-bit.  The throughput gate in
``benchmarks/test_perf_regression.py`` bounds the 2-worker pooled
service against the serial submit loop.  History entries are
unchanged.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ReproError
from ..mft.context import clear_sweep_contexts
from ..mft.engine import MftNoiseAnalyzer
from ..mft.sweep import adaptive_frequency_grid
from ..obs import Recorder, stage_totals
from ..typing import FloatArray
from .workloads import Workload, default_workloads, tiny_workloads

#: Bump when the JSON layout changes incompatibly.  v2: per-variant
#: ``solver`` axis + append-only ``history`` list.  v3: per-variant
#: ``stages`` block (seconds per recorded span name).  v4: the
#: ``"attribution"`` workload kind + per-variant ``attributed`` flag.
#: v5: the ``"corners"`` workload kind + per-variant ``n_params``.
#: v6: the ``"service"`` workload kind + per-variant ``service`` block
#: (throughput, latency percentiles, store telemetry).
BENCH_SCHEMA_VERSION = 6

#: Default artifact path, relative to the repository root.
BENCH_FILENAME = "BENCH_sweep.json"

#: Cap on retained history entries; the oldest are dropped first.
BENCH_HISTORY_LIMIT = 200

#: The timing matrix: (variant, executor backend, solver).  Every run
#: starts from a cleared registry, so "uncached" is a cold sweep on a
#: fresh sweep context.
SWEEP_VARIANTS: tuple[tuple[str, str, str | None], ...] = (
    ("serial-uncached", "serial", None),
    ("parallel-uncached", "process", None),
    ("serial-spectral", "serial", "spectral-batch"),
    ("parallel-spectral", "process", "spectral-batch"),
)

#: Adaptive refinement is inherently sequential (each bisection depends
#: on the previous PSD values), so only the cold serial sweep is timed.
ADAPTIVE_VARIANTS: tuple[tuple[str, str, str | None], ...] = (
    ("serial-uncached", "serial", None),
)

#: Attribution matrix: (variant, backend, solver, attributed).  The
#: cost gate in ``benchmarks/test_perf_regression.py`` divides
#: ``spectral-attributed`` by the unattributed ``serial-uncached``
#: sweep of the same grid (the stacked multi-RHS kernel is the
#: supported fast path for attribution — the per-frequency
#: ``serial-attributed`` variant pays one extra solve per source and is
#: only gated to be slower than ``spectral-attributed``).  The attributed variants' equivalence column
#: doubles as a check that attribution leaves the total PSD
#: bit-identical.
ATTRIBUTION_VARIANTS: tuple[tuple[str, str, str | None, bool], ...] = (
    ("serial-uncached", "serial", None, False),
    ("serial-attributed", "serial", None, True),
    ("serial-spectral", "serial", "spectral-batch", False),
    ("spectral-attributed", "serial", "spectral-batch", True),
    ("parallel-attributed", "process", "spectral-batch", True),
)

#: Corners matrix: (variant, cache, backend, solver, attributed).
#: ``serial-uncached`` is the reference the corner-batch gate divides
#: by: the M member analyzers are built exactly as the batched path
#: builds them (shared dynamics roots, derived intensity contexts),
#: then every corner is swept *independently* through the frequency
#: -batched spectral kernel — M independent cached spectral sweeps.
#: For this kind "uncached" refers to the parameter axis (no work is
#: shared between the M solves), not the context registry: both sides
#: run over identically prewarmed family contexts (see
#: ``_time_corners``), so the speedup column isolates the batched
#: solve itself.  ``corner-batch`` solves the same family in one
#: ``corner_psd_sweep`` call; ``corner-batch-attributed`` additionally
#: arms per-source attribution (recorded values stay the total PSD, so
#: its equivalence column checks attribution has no numerical side
#: effects on the batched path).
CORNER_VARIANTS: tuple[tuple[str, bool, str, str | None, bool], ...] = (
    ("serial-uncached", False, "serial", "spectral-batch", False),
    ("corner-batch", True, "serial", "param-batch", False),
    ("corner-batch-attributed", True, "serial", "param-batch", True),
)

#: Service matrix: (variant, long-lived service, queue backend).
#: Every variant runs the same submission list: N distinct jobs
#: repeated P passes (duplicate traffic — the same circuit/grid
#: re-analyzed, which is what batch submission streams look like).
#: ``serial-uncached`` is the reference: a serial submit loop in which
#: every submission is an independent *cold* run — fresh context
#: registry, fresh queue (hence fresh, useless store) per submission;
#: what N·P one-off analyses cost without a service.  ``serial-store``
#: is one long-lived serial-backend queue: distinct jobs computed
#: once, every duplicate served from the content-addressed result
#: store — isolating the store's contribution.  ``pool-2`` is the
#: service as shipped: the same long-lived queue over a 2-worker
#: shared process pool sharding each computed sweep's chunks; the
#: throughput gate divides this against ``serial-uncached``.  For the
#: long-lived variants the store's hit counters become the variant's
#: ``cache_stats`` (cache flag True), and the equivalence column
#: checks every store-served duplicate bit-identical to the cold
#: recompute.
SERVICE_VARIANTS: tuple[tuple[str, bool, str], ...] = (
    ("serial-uncached", False, "serial"),
    ("serial-store", True, "serial"),
    ("pool-2", True, "process"),
)


@dataclass
class VariantResult:
    """Timing + equivalence record of one (workload, configuration).

    ``cache`` is the recorded ``"cache"`` flag: ``True`` for every
    sweep, adaptive and attribution variant (each draws from a sweep
    context, hence records ``cache_stats``); ``False`` only for the
    corners and service references, which share no work across their
    corners or submissions.
    """

    variant: str
    backend: str
    cache: bool
    wall_seconds: float
    n_points: int
    values: FloatArray
    cache_stats: dict[str, Any] | None
    solver: str | None = None
    stages: dict[str, float] | None = None
    trace: dict[str, Any] | None = None
    attributed: bool = False
    n_params: int = 1
    service: dict[str, Any] | None = None

    def to_dict(self, reference: "VariantResult") -> dict[str, Any]:
        rate = (self.n_points / self.wall_seconds
                if self.wall_seconds > 0.0 else float("inf"))
        entry = {
            "variant": self.variant,
            "backend": self.backend,
            "cache": self.cache,
            "solver": self.solver,
            "attributed": self.attributed,
            "n_params": self.n_params,
            "wall_seconds": self.wall_seconds,
            "n_points": self.n_points,
            "points_per_second": rate,
            "cache_stats": self.cache_stats,
            "stages": dict(self.stages or {}),
            "speedup_vs_serial_uncached": (
                reference.wall_seconds / self.wall_seconds
                if self.wall_seconds > 0.0 else float("inf")),
            "max_rel_diff_vs_serial_uncached": max_relative_difference(
                reference.values, self.values),
        }
        if self.service is not None:
            entry["service"] = dict(self.service)
        return entry


def max_relative_difference(reference: FloatArray,
                            candidate: FloatArray) -> float:
    """Worst |Δ| over finite points, relative to the spectrum scale.

    Relative to ``max |reference|`` rather than pointwise, so a sinc
    notch near zero does not blow the metric up; NaN masks must match
    exactly (a mismatch returns ``inf``).
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        return float("inf")
    finite = np.isfinite(reference)
    if not np.array_equal(finite, np.isfinite(candidate)):
        return float("inf")
    if not np.any(finite):
        return 0.0
    scale = float(np.max(np.abs(reference[finite])))
    if scale == 0.0:
        return float(np.max(np.abs(candidate[finite])))
    return float(np.max(np.abs(candidate[finite] - reference[finite]))
                 / scale)


def _time_sweep(workload: Workload, backend: str,
                solver: str | None = None,
                attributed: bool = False) -> VariantResult:
    """One cold timed run of a fixed-grid sweep workload.

    ``attributed=True`` runs the same sweep with per-source attribution
    armed; the recorded ``values`` stay the *total* PSD samples, so the
    equivalence column doubles as a check that attribution leaves the
    total unchanged.
    """
    system = workload.build()
    freqs = workload.frequencies()
    clear_sweep_contexts()
    recorder = Recorder()
    t0 = time.perf_counter()
    analyzer = MftNoiseAnalyzer(
        system, segments_per_phase=workload.segments_per_phase,
        recorder=recorder)
    if solver is not None or attributed:
        result = analyzer.psd_sweep(
            freqs, parallel=None if backend == "serial" else backend,
            solver=solver, attribute_sources=attributed)
    elif backend == "serial":
        result = analyzer.psd(freqs)
    else:
        result = analyzer.psd_sweep(freqs, parallel=backend)
    wall = time.perf_counter() - t0
    return VariantResult(
        variant="", backend=backend, cache=True, wall_seconds=wall,
        n_points=int(freqs.size), values=result.psd, solver=solver,
        cache_stats=analyzer.cache_stats.to_dict(),
        stages=stage_totals(recorder), trace=recorder.export(),
        attributed=attributed)


def _time_corners(workload: Workload, variant: str, cache: bool,
                  backend: str, solver: str | None,
                  attributed: bool = False) -> VariantResult:
    """One timed run of a corner-family workload over warm contexts.

    The reference (``serial-uncached``) builds the M member analyzers
    through the same ``_build_members`` path the batched sweep uses
    (shared dynamics roots, derived intensity contexts) and then sweeps
    each corner independently with the frequency-batched spectral
    kernel — "M independent cached spectral sweeps".  The other
    variants run :func:`~repro.mft.corners.corner_psd_sweep` on the
    identical family.

    Unlike the other kinds, the family contexts are warmed *before*
    the timer starts (once, from a cold registry): building them is
    byte-identical work on every side of the comparison, so including
    it would only dilute the ratio the gate is about — what the
    parameter-batched solve saves over per-corner solves.  Cold-cache
    economics are the sweep workloads' job.  Each timed section still
    re-enters the member-build path, so registry lookup overhead is
    paid symmetrically, and the equivalence column compares
    like-for-like numerics (same derived contexts on both sides).
    """
    from ..mft.corners import _build_members, corner_psd_sweep

    family = workload.corner_family()
    system = workload.build()
    freqs = workload.frequencies()
    n_params = len(family)
    clear_sweep_contexts()
    _build_members(system, family, 0, workload.segments_per_phase,
                   None, True)
    recorder = Recorder()
    if variant == "serial-uncached":
        t0 = time.perf_counter()
        members = _build_members(system, family, 0,
                                 workload.segments_per_phase, recorder,
                                 True)
        rows = [member.psd_sweep(freqs, solver="spectral-batch").psd
                for member in members]
        wall = time.perf_counter() - t0
        values = np.stack(rows)
        stats = members[0].cache_stats.to_dict()
    else:
        t0 = time.perf_counter()
        result = corner_psd_sweep(
            system, family, freqs,
            segments_per_phase=workload.segments_per_phase,
            parallel=None if backend == "serial" else backend,
            attribute_sources=attributed, recorder=recorder)
        wall = time.perf_counter() - t0
        values = np.asarray(result.values, dtype=float)
        stats = result.info.get("cache_stats")
    return VariantResult(
        variant=variant, backend=backend, cache=cache,
        wall_seconds=wall, n_points=int(freqs.size) * n_params,
        values=values, solver=solver, cache_stats=stats,
        stages=stage_totals(recorder), trace=recorder.export(),
        attributed=attributed, n_params=n_params)


def _time_service(workload: Workload, variant: str, long_lived: bool,
                  backend: str) -> VariantResult:
    """One timed submission stream through the service layer.

    The stream is N distinct jobs (grids ``grid * (1 + step*j)``, so
    each has its own content address) submitted P passes — duplicate
    traffic a real batch front-end sees.  The recorded ``values`` are
    the stacked ``(N*P, K)`` per-submission PSDs in stream order;
    since the reference recomputes every submission cold, the
    equivalence column *is* the proof that store-served duplicates and
    pool-sharded sweeps are bit-identical to independent cold runs.

    The ``serial-uncached`` reference is the no-service baseline: each
    submission runs in its own fresh queue over a freshly cleared
    context registry — N·P independent one-off analyses.  The
    long-lived variants run one :class:`~repro.service.JobQueue` for
    the whole stream: distinct jobs are computed once (sharded across
    the worker pool on the pooled variant) and every duplicate is a
    content-address hit served from the result store without a single
    kernel solve.

    Latency percentiles are measured from stream-submit time to each
    job's completion — the client-visible figure for "submit a batch,
    when is job i usable".
    """
    from ..service import JobQueue, JobSpec

    spec = workload.service
    assert spec is not None
    system = workload.build()
    base = workload.frequencies()
    grids = [base * (1.0 + spec.grid_step * j)
             for j in range(spec.n_jobs)]
    stream = [grid for _ in range(spec.n_passes) for grid in grids]

    def make_spec(grid: FloatArray) -> Any:
        return JobSpec(system, grid,
                       segments_per_phase=workload.segments_per_phase)

    clear_sweep_contexts()
    recorder = Recorder()
    latencies: list[float] = []
    stats: dict[str, Any] | None = None
    results = []
    if not long_lived:
        t0 = time.perf_counter()
        for grid in stream:
            clear_sweep_contexts()
            with JobQueue() as queue:
                handle = queue.submit(make_spec(grid),
                                      recorder=recorder)
                results.append(handle.wait(timeout=600.0))
            latencies.append(time.perf_counter() - t0)
        wall = time.perf_counter() - t0
    else:
        kwargs: dict[str, Any] = {}
        if backend != "serial":
            kwargs = {"backend": backend,
                      "max_workers": spec.max_workers}
        with JobQueue(**kwargs) as queue:
            t0 = time.perf_counter()
            handles = [queue.submit(make_spec(grid), recorder=recorder)
                       for grid in stream]
            for handle in handles:
                handle.wait(timeout=600.0)
                latencies.append(time.perf_counter() - t0)
            wall = time.perf_counter() - t0
            results = [handle.result for handle in handles]
            stats = queue.store.stats.to_dict()
    values = np.stack([job_result.result.psd for job_result in results])
    n_submissions = len(stream)
    service: dict[str, Any] = {
        "n_jobs": int(spec.n_jobs),
        "n_passes": int(spec.n_passes),
        "n_submissions": n_submissions,
        "max_workers": (1 if backend == "serial"
                        else int(spec.max_workers)),
        "throughput_jobs_per_s": (n_submissions / wall
                                  if wall > 0.0 else float("inf")),
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p99_s": float(np.percentile(latencies, 99)),
        "store_hits": sum(1 for job_result in results
                          if job_result.served_from_store),
    }
    return VariantResult(
        variant=variant, backend=backend, cache=long_lived,
        wall_seconds=wall, n_points=int(base.size) * n_submissions,
        values=values, solver=None, cache_stats=stats,
        stages=stage_totals(recorder), trace=recorder.export(),
        service=service)


def _time_adaptive(workload: Workload) -> VariantResult:
    """One cold timed run of an adaptive-grid workload."""
    spec = workload.adaptive
    assert spec is not None
    system = workload.build()
    clear_sweep_contexts()
    recorder = Recorder()
    t0 = time.perf_counter()
    analyzer = MftNoiseAnalyzer(
        system, segments_per_phase=workload.segments_per_phase,
        recorder=recorder)
    freqs, values = adaptive_frequency_grid(
        analyzer.psd_at, spec.f_start, spec.f_stop,
        n_initial=spec.n_initial, max_points=spec.max_points,
        tol_db=spec.tol_db)
    wall = time.perf_counter() - t0
    return VariantResult(
        variant="", backend="serial", cache=True, wall_seconds=wall,
        n_points=int(freqs.size), values=np.asarray(values, dtype=float),
        cache_stats=analyzer.cache_stats.to_dict(),
        stages=stage_totals(recorder), trace=recorder.export())


def run_workload(workload: Workload,
                 trace_sink: dict[str, Any] | None = None
                 ) -> dict[str, Any]:
    """Time every configuration of one workload; returns its JSON entry.

    ``trace_sink`` (a dict) optionally collects the full span/counter
    export of every variant under ``trace_sink[workload][variant]`` —
    the ``--trace`` CLI artifact; the bench JSON itself only carries the
    compact per-stage totals.
    """
    if workload.kind == "service":
        variants: tuple[tuple, ...] = SERVICE_VARIANTS
    elif workload.kind == "corners":
        variants = CORNER_VARIANTS
    elif workload.kind == "attribution":
        variants = ATTRIBUTION_VARIANTS
    elif workload.kind == "sweep":
        variants = SWEEP_VARIANTS
    else:
        variants = ADAPTIVE_VARIANTS
    results: list[VariantResult] = []
    for spec in variants:
        name = spec[0]
        if workload.kind == "service":
            run = _time_service(workload, *spec)
        elif workload.kind == "corners":
            run = _time_corners(workload, *spec)
        elif workload.kind == "adaptive":
            run = _time_adaptive(workload)
        else:
            run = _time_sweep(workload, *spec[1:])
        run.variant = name
        results.append(run)
        if trace_sink is not None:
            trace_sink.setdefault(workload.name, {})[name] = run.trace
    reference = results[0]
    if reference.variant != "serial-uncached":
        raise ReproError(
            "the first timed variant must be the serial-uncached "
            f"reference, got {reference.variant!r}")
    return {
        "workload": workload.name,
        "description": workload.description,
        "kind": workload.kind,
        "n_points": reference.n_points,
        "variants": [run.to_dict(reference) for run in results],
    }


def run_suite(workloads: list[Workload] | None = None,
              tiny: bool = False,
              trace_sink: dict[str, Any] | None = None) -> dict[str, Any]:
    """Run the whole benchmark suite; returns the JSON document."""
    if workloads is None:
        workloads = tiny_workloads() if tiny else default_workloads()
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": "sweep",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                      time.gmtime()),
        "tiny": bool(tiny),
        "workloads": [run_workload(w, trace_sink=trace_sink)
                      for w in workloads],
        "history": [],
    }


def append_history(data: dict[str, Any], path: str | Path,
                   git_sha: str = "unknown",
                   timestamp: str | None = None,
                   limit: int = BENCH_HISTORY_LIMIT) -> dict[str, Any]:
    """Fold the prior artifact's history into ``data`` and append this run.

    Reads the existing artifact at ``path`` *leniently* — a missing,
    corrupt, or pre-v2 file contributes no history rather than failing
    the benchmark run — carries its ``history`` list forward, and
    appends one entry for the current document: the git SHA and
    timestamp identifying the run plus the per-workload
    ``{variant: wall_seconds}`` timings.  At most ``limit`` entries are
    kept (oldest dropped first).  Returns ``data`` mutated in place.
    """
    history: list[dict[str, Any]] = []
    try:
        prior = json.loads(Path(path).read_text())
        prior_history = prior.get("history")
        if isinstance(prior_history, list):
            history = [entry for entry in prior_history
                       if isinstance(entry, dict)]
    except (OSError, ValueError, AttributeError):
        pass
    entry = {
        "git_sha": str(git_sha),
        "timestamp": (str(timestamp) if timestamp is not None
                      else data.get("generated_at", "unknown")),
        "tiny": bool(data.get("tiny", False)),
        "workloads": {
            workload["workload"]: {
                variant["variant"]: variant["wall_seconds"]
                for variant in workload["variants"]
            }
            for workload in data.get("workloads", [])
        },
    }
    history.append(entry)
    data["history"] = history[-int(limit):]
    return data


def write_bench(data: dict[str, Any], path: str | Path) -> Path:
    """Validate and write a benchmark document (stable, diff-friendly)."""
    validate_bench(data)
    path = Path(path)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


_VARIANT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "variant": str,
    "backend": str,
    "cache": bool,
    "solver": (str, type(None)),
    "attributed": bool,
    "n_params": int,
    "wall_seconds": (int, float),
    "n_points": int,
    "points_per_second": (int, float),
    "stages": dict,
    "speedup_vs_serial_uncached": (int, float),
    "max_rel_diff_vs_serial_uncached": (int, float),
}

#: Required numeric fields of a service variant's ``service`` block.
_SERVICE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "n_jobs": int,
    "n_passes": int,
    "n_submissions": int,
    "max_workers": int,
    "throughput_jobs_per_s": (int, float),
    "latency_p50_s": (int, float),
    "latency_p99_s": (int, float),
    "store_hits": int,
}

_HISTORY_FIELDS: dict[str, type | tuple[type, ...]] = {
    "git_sha": str,
    "timestamp": str,
    "workloads": dict,
}


def validate_bench(data: dict[str, Any]) -> None:
    """Schema-check one benchmark document; raises ``ReproError``.

    The CI ``bench-smoke`` job runs this against the emitted
    ``BENCH_sweep.json`` so a drive-by change to the harness cannot
    silently break downstream consumers of the perf trajectory.
    """
    if not isinstance(data, dict):
        raise ReproError(
            f"bench document must be a JSON object, got "
            f"{type(data).__name__}")
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ReproError(
            f"unsupported bench schema_version "
            f"{data.get('schema_version')!r}; expected "
            f"{BENCH_SCHEMA_VERSION}")
    for key in ("suite", "generated_at", "tiny", "workloads", "history"):
        if key not in data:
            raise ReproError(f"bench document is missing {key!r}")
    history = data["history"]
    if not isinstance(history, list):
        raise ReproError(
            f"bench history must be a list, got "
            f"{type(history).__name__}")
    for entry in history:
        if not isinstance(entry, dict):
            raise ReproError(
                f"history entry must be an object: {entry!r}")
        for key, types in _HISTORY_FIELDS.items():
            if key not in entry:
                raise ReproError(
                    f"history entry is missing {key!r}: {entry!r}")
            if not isinstance(entry[key], types):
                raise ReproError(
                    f"history field {key!r} has type "
                    f"{type(entry[key]).__name__}, expected {types}")
    workloads = data["workloads"]
    if not isinstance(workloads, list) or not workloads:
        raise ReproError("bench document must record >= 1 workload")
    for entry in workloads:
        for key in ("workload", "description", "kind", "n_points",
                    "variants"):
            if key not in entry:
                raise ReproError(
                    f"workload entry is missing {key!r}: {entry!r}")
        if entry["kind"] not in ("sweep", "adaptive", "attribution",
                                 "corners", "service"):
            raise ReproError(
                f"unknown workload kind {entry['kind']!r}")
        if not isinstance(entry["variants"], list) or not entry["variants"]:
            raise ReproError(
                f"workload {entry['workload']!r} records no variants")
        names = [v.get("variant") for v in entry["variants"]]
        if names[0] != "serial-uncached":
            raise ReproError(
                f"workload {entry['workload']!r} must lead with the "
                "serial-uncached reference variant")
        for variant in entry["variants"]:
            for key, types in _VARIANT_FIELDS.items():
                if key not in variant:
                    raise ReproError(
                        f"variant entry is missing {key!r}: {variant!r}")
                if not isinstance(variant[key], types):
                    raise ReproError(
                        f"variant field {key!r} has type "
                        f"{type(variant[key]).__name__}, expected "
                        f"{types}")
            stats = variant.get("cache_stats")
            if stats is not None and not isinstance(stats, dict):
                raise ReproError(
                    "variant cache_stats must be an object or null, "
                    f"got {type(stats).__name__}")
            if entry["kind"] == "service":
                block = variant.get("service")
                if not isinstance(block, dict):
                    raise ReproError(
                        f"service variant {variant.get('variant')!r} "
                        "must carry a service block")
                for key, types in _SERVICE_FIELDS.items():
                    if key not in block:
                        raise ReproError(
                            f"service block is missing {key!r}: "
                            f"{block!r}")
                    if (not isinstance(block[key], types)
                            or isinstance(block[key], bool)):
                        raise ReproError(
                            f"service field {key!r} has type "
                            f"{type(block[key]).__name__}, expected "
                            f"{types}")
            for stage, seconds in variant["stages"].items():
                if (not isinstance(stage, str)
                        or not isinstance(seconds, (int, float))
                        or isinstance(seconds, bool)):
                    raise ReproError(
                        "variant stages must map span names to "
                        f"seconds, got {stage!r}: {seconds!r}")


def load_bench(path: str | Path) -> dict[str, Any]:
    """Read and validate a benchmark document from disk."""
    data = json.loads(Path(path).read_text())
    validate_bench(data)
    return data
