"""Performance benchmarking: workloads, timing harness, bench artifacts.

``python -m repro.perf`` times the sweep workload suite (serial/parallel
× per-frequency/spectral-batch, every run from a cold context registry)
and writes ``BENCH_sweep.json``; ``benchmarks/test_perf_regression.py``
asserts the recorded speedups and numerical equivalence, and the CI ``bench-smoke`` job validates the
artifact's schema on tiny workloads. See DESIGN.md §8.
"""

from .harness import (
    BENCH_FILENAME,
    BENCH_HISTORY_LIMIT,
    BENCH_SCHEMA_VERSION,
    append_history,
    load_bench,
    max_relative_difference,
    run_suite,
    run_workload,
    validate_bench,
    write_bench,
)
from .workloads import (
    AdaptiveSpec,
    Workload,
    default_workloads,
    tiny_workloads,
    workload_by_name,
)

__all__ = [
    "BENCH_FILENAME",
    "BENCH_HISTORY_LIMIT",
    "BENCH_SCHEMA_VERSION",
    "append_history",
    "AdaptiveSpec",
    "Workload",
    "default_workloads",
    "tiny_workloads",
    "workload_by_name",
    "run_suite",
    "run_workload",
    "load_bench",
    "validate_bench",
    "write_bench",
    "max_relative_difference",
]
