"""Metric definitions and order statistics shared by the benchmark tools.

Standard library only: ``run.py`` and ``compare.py`` import this module
without importing numpy or the library under test, so an orchestrator
that cannot find the library still starts, reports, and exits non-zero.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The workloads, in run order.  The reasons live in README.md and
#: BENCHMARK.json; ``workloads.py`` holds the definitions.  BENCHMARK.json
#: lists the first four: the closed loops, whose latencies the probe of
#: ``calibration.py`` calibrates.
WORKLOADS = ("lowpass-dense", "catalog-spot", "cascade-scaling",
             "corners-attributed", "service-open-loop")

#: End-to-end metrics with a regression bound (BENCHMARK.json): name ->
#: (unit, better).  ``setup_s`` is calibrated like the latencies (see
#: ``calibration.py``).  The open loop reports no calibrated latency or
#: throughput.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "calibrated_latency_p50_s": ("s", "lower"),
    "calibrated_points_per_s": ("points/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}
#: End-to-end metrics printed and written with those, but without a
#: bound: wall-clock figures, which move with the host's bursts of
#: contention by more than the largest bound allowed (see README.md).
#: ``error_rate`` is 0 on every correct run, and any failure fails the
#: run outright.
UNBOUNDED_E2E_METRICS = {
    "setup_wall_s": ("s", "lower"),
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "points_per_s": ("points/s", "higher"),
}

#: Per-layer metrics measured on every workload (per traced request).
PER_LAYER_METRICS = {
    "circuits.build_s": "s",
    "circuits.n_states": "count",
    "lptv.discretize_s": "s",
    "noise.covariance_s": "s",
    "mft.context.structure_s": "s",
    "mft.context.forcing_s": "s",
    "mft.context.eigenbasis_s": "s",
    "mft.context.registry_hit_ratio": "ratio",
    "diagnostics.preflight_s": "s",
    "mft.sweep_s": "s",
    "mft.sweep_self_s": "s",
    "mft.spectral.step_integrals_s": "s",
    "mft.spectral.solve_s": "s",
    "mft.spectral.trace_s": "s",
    "mft.spectral.period_integral_s": "s",
    "mft.spectral.rescued_points": "count",
    "mft.spectral.stack_bytes": "B",
    "mft.executor.dispatch_self_s": "s",
    "mft.executor.chunks": "count",
    "mft.executor.retries": "count",
    "loadgen.lag_p99_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Per-layer metrics of layers only some workloads reach.  They are
#: printed and written to result files for those workloads, but are not
#: part of the fixed metric set every run reports.
WORKLOAD_LAYER_METRICS = {
    "mft.corners.warm_up_s": "s",
    "mft.corners.sweep_s": "s",
    "metrics.attribution_cost_ratio": "ratio",
    "metrics.band_s": "s",
    "results.encode_s": "s",
    "results.decode_s": "s",
    "results.payload_bytes": "B",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.store_get_s": "s",
    "service.store_put_s": "s",
    "service.store_hit_ratio": "ratio",
    "service.backlog_max": "count",
}

#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of the ``q``-th percentile of ``n``."""
    if n < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100.0 * n))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank percentile."""
    return n - rank(n, q)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def tail_ok(n: int, q: float) -> bool:
    """Whether ``q`` is reportable: at least ten samples lie beyond it."""
    return n >= 1 and samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def load_benchmark() -> dict:
    """The repository's BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
