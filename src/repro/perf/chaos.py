"""Chaos-smoke harness: seeded fault injection on a real workload.

``python -m repro.perf.chaos`` runs one sweep workload twice — once
clean, once under a seeded :class:`~repro.resilience.faults.FaultPlan`
mixing transient solve failures with a hard worker crash — and checks
that the recovered sweep is *bit-identical* to the clean one.  It then
kills a third run halfway through a checkpointed sweep and resumes it,
checking bit-identity again.  The JSON trace it writes (``-o``) is the
CI ``chaos-smoke`` artifact; a non-zero exit code means the resilience
machinery changed numbers.

This is the operational complement of ``benchmarks/
test_perf_regression.py``'s chaos gates: same checks, but runnable
standalone against any workload/backend/seed for debugging.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

from ..errors import ReproError
from ..mft.context import clear_sweep_contexts
from ..mft.engine import MftNoiseAnalyzer
from ..mft.executor import SweepExecutor
from ..noise.result import PsdResult
from ..resilience import FaultPlan, FaultSpec, InjectedSweepKill, RetryPolicy
from .workloads import (
    Workload,
    default_workloads,
    tiny_workloads,
    workload_by_name,
)

#: Fraction of per-frequency solves the chaos plan fails transiently.
TRANSIENT_RATE = 0.2


def _chaos_plan(seed: int, crash_chunk: int) -> FaultPlan:
    """The standard chaos mix: 20% transient solves + one worker crash."""
    return FaultPlan([
        FaultSpec("mft.solve", "transient", rate=TRANSIENT_RATE),
        FaultSpec("executor.chunk", "crash",
                  match={"chunk": crash_chunk}),
    ], seed=seed)


def run_chaos(workload: Workload, backend: str = "process", seed: int = 0,
              chunk_size: int = 8, max_workers: int = 2,
              checkpoint_dir: "str | Path | None" = None
              ) -> dict[str, Any]:
    """Run the chaos checks on one workload; returns the trace document.

    ``document["passed"]`` is the overall verdict;
    ``document["checks"]`` itemizes the recovery and resume gates with
    their retry/crash/resume counters.
    """
    system = workload.build()
    grid = workload.frequencies()
    clear_sweep_contexts()
    analyzer = MftNoiseAnalyzer(
        system, segments_per_phase=workload.segments_per_phase)
    n_chunks = -(-grid.size // chunk_size)
    crash_chunk = (n_chunks // 2) * chunk_size
    retry = RetryPolicy()

    def sweep(**kwargs: Any) -> PsdResult:
        executor = SweepExecutor(
            backend=backend, chunk_size=chunk_size,
            max_workers=max_workers, retry=retry,
            faults=kwargs.pop("faults", None))
        return executor.run(analyzer, grid, **kwargs)

    t0 = time.perf_counter()
    clean = sweep()
    clean_seconds = time.perf_counter() - t0

    checks: list[dict[str, Any]] = []

    t0 = time.perf_counter()
    faulted = sweep(faults=_chaos_plan(seed, crash_chunk))
    meta = faulted.info["executor"]
    checks.append({
        "check": "fault-recovery",
        "bit_identical": clean.psd.tobytes() == faulted.psd.tobytes(),
        "n_retries": meta["n_retries"],
        "n_worker_crashes": meta["n_worker_crashes"],
        "n_chunks_failed": meta["n_chunks_failed"],
        "injected_any": meta["n_retries"] > 0,
        "wall_seconds": time.perf_counter() - t0,
    })

    if checkpoint_dir is not None:
        store = Path(checkpoint_dir)
        kill_plan = FaultPlan([FaultSpec("executor.dispatch", "kill",
                                         match={"chunk": crash_chunk})],
                              seed=seed)
        killed = False
        try:
            sweep(faults=kill_plan, checkpoint=store)
        except InjectedSweepKill:
            killed = True
        resumed = sweep(checkpoint=store)
        meta = resumed.info["executor"]
        checks.append({
            "check": "kill-resume",
            "killed": killed,
            "bit_identical":
                clean.psd.tobytes() == resumed.psd.tobytes(),
            "n_chunks_resumed": meta["n_chunks_resumed"],
        })

    passed = all(check["bit_identical"] for check in checks)
    return {
        "schema": "repro-chaos-trace-v1",
        "workload": workload.name,
        "backend": backend,
        "seed": seed,
        "chunk_size": chunk_size,
        "max_workers": max_workers,
        "n_points": int(grid.size),
        "clean_wall_seconds": clean_seconds,
        "checks": checks,
        "passed": passed,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.chaos",
        description="seeded fault-injection smoke run on one workload")
    parser.add_argument("--workload", default="sc-lowpass-sweep-64")
    parser.add_argument("--backend", default="process",
                        choices=["serial", "process"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chunk-size", type=int, default=8)
    parser.add_argument("--max-workers", type=int, default=2)
    parser.add_argument("--tiny", action="store_true",
                        help="use the CI-sized tiny workload variants")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="directory for the kill/resume check "
                             "(skipped when omitted)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the JSON trace document here")
    args = parser.parse_args(argv)

    pool = tiny_workloads() if args.tiny else default_workloads()
    try:
        workload = workload_by_name(args.workload, pool)
    except ReproError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    document = run_chaos(workload, backend=args.backend, seed=args.seed,
                         chunk_size=args.chunk_size,
                         max_workers=args.max_workers,
                         checkpoint_dir=args.checkpoint_dir)
    if args.output:
        Path(args.output).write_text(
            json.dumps(document, indent=2) + "\n")
    for check in document["checks"]:
        verdict = "ok" if check["bit_identical"] else "FAILED"
        detail = {k: v for k, v in check.items()
                  if k not in ("check", "bit_identical")}
        sys.stdout.write(
            f"{document['workload']} [{document['backend']}] "
            f"{check['check']}: {verdict} ({detail})\n")
    if not document["passed"]:
        sys.stderr.write(
            "chaos run FAILED: recovered sweep is not bit-identical\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
