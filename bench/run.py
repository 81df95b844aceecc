"""Cold circuit-to-PSD benchmark of the ``repro`` library.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [-o FILE]

Each workload runs as three rounds, one after another, each in a fresh
interpreter doing a third of the measured requests, after four more
fresh interpreters that only time set-up; ``--trace`` instead runs one
round whose measured requests are replayed with tracing on and reports
the per-layer metrics.  Without ``--workload`` every workload runs.  The
last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every request succeeded and every correctness check passed.  See
README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import calibrated
from common import (
    E2E_METRICS,
    PER_LAYER_METRICS,
    ROOT,
    UNBOUNDED_E2E_METRICS,
    WORKLOAD_LAYER_METRICS,
    WORKLOADS,
    percentile,
    samples_beyond,
    tail_ok,
)

ROUNDS = 3
#: Interpreters that only time set-up, so that ``setup_s`` is the median
#: of seven set-ups (one per round besides).
SETUP_ONLY_ROUNDS = 4
#: Measured requests per workload: at least ten beyond the p90.
MIN_REQUESTS = 100
WARMUP_S = 1.0
DEFAULT_SECONDS = 12
#: A round that runs longer than this is killed and counted as failed.
ROUND_TIMEOUT_S = 55.0
#: ``--smoke``: every workload and both modes, at toy sizes.
SMOKE = {"seconds": 0.3, "min_requests": 3, "warmup": 0.05,
         "setup_only_rounds": 1}
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload (default "
                             f"{DEFAULT_SECONDS}); each workload also runs "
                             f"until {MIN_REQUESTS} requests completed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny untraced and traced runs of every "
                             "workload (a self-test, not a measurement)")
    parser.add_argument("-o", "--output", help="write the result file")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    # One BLAS thread unless the caller chose otherwise: the load
    # generator and the job queue already use both CPUs of the
    # reference machine, and a fixed count keeps runs comparable.
    for name in BLAS_THREAD_VARIABLES:
        env.setdefault(name, "1")
    return env


def run_round(workload, seed, index, seconds, min_requests, warmup, trace,
              setup_only=False):
    """One fresh-interpreter round; returns its JSON report."""
    cmd = [sys.executable, str(ROOT / "bench" / "one_round.py"),
           "--workload", workload, "--seed", str(seed), "--round",
           str(index), "--seconds", repr(seconds), "--min-requests",
           str(min_requests), "--warmup", repr(warmup), "--trace",
           str(trace)] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        return failed_round(workload, index,
                            f"round timed out after {ROUND_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failed_round(workload, index,
                            f"round exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    report["child_wall_s"] = time.perf_counter() - started
    return report


def failed_round(workload, index, message):
    print(f"{workload} round {index}: {message}", file=sys.stderr)
    return {"workload": workload, "round": index, "crashed": message,
            "attempted": 1, "failed": 1, "errors": [message]}


def summarize(workload, rounds, trace, setups=()):
    """Aggregate a workload's rounds, and the reports of its set-up-only
    interpreters, into its metrics."""
    everything = list(setups) + list(rounds)
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    summary = {"attempted": attempted, "failed": failed,
               "error_rate": failed / attempted if attempted else 1.0,
               "errors": [e for r in everything for e in r.get("errors", [])],
               "setup_only": [{k: r.get(k) for k in (
                   "setup_s", "setup_probe_s")} for r in setups],
               "rounds": [{k: r.get(k) for k in (
                   "round", "setup_s", "setup_probe_s", "wall_s",
                   "round_wall_s", "child_wall_s", "requests", "attempted",
                   "failed", "checks", "checks_failed", "store_hits",
                   "peak_rss_mb", "registry_hit_ratio", "traced_requests",
                   "crashed")}
                   for r in rounds]}
    if any("crashed" in r for r in everything):
        return summary
    if trace:
        summary["per_layer"] = dict(rounds[0]["per_layer"])
        summary["per_layer"]["mft.context.registry_hit_ratio"] = (
            rounds[0]["registry_hit_ratio"])
        summary["extras"] = rounds[0]["extras"]
        return summary
    latencies = [x for r in rounds for x in r["latencies"]]
    lags = [x for r in rounds for x in r["lags"]]
    setup_times = [r["setup_s"] for r in everything]
    points = sum(r["points"] for r in rounds)
    n = len(latencies)
    values = {
        "setup_s": (statistics.median(
            calibrated(r["setup_s"], r["setup_probe_s"]) for r in everything),
            len(everything)),
        "setup_wall_s": (statistics.median(setup_times), len(setup_times)),
        "latency_p50_s": (percentile(latencies, 50.0), n),
        "latency_p90_s": (percentile(latencies, 90.0), n),
        "points_per_s": (points / sum(r["wall_s"] for r in rounds), points),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), len(rounds)),
    }
    if all("calibrated" in r for r in rounds):
        latencies_at_reference = [x for r in rounds
                                  for x in r["calibrated"]]
        values["calibrated_latency_p50_s"] = (
            percentile(latencies_at_reference, 50.0), n)
        values["calibrated_points_per_s"] = (
            points / sum(latencies_at_reference), points)
    units = {**E2E_METRICS, **UNBOUNDED_E2E_METRICS}
    summary["metrics"] = {
        key: {"value": value, "unit": units[key][0], "samples": count}
        for key, (value, count) in values.items()}
    summary["tail_ok"] = tail_ok(n, 90.0)
    summary["counts"] = {
        "requests": sum(r["requests"] for r in rounds),
        "points": sum(r["points"] for r in rounds),
        "store_hits": sum(r.get("store_hits", 0) for r in rounds),
        "checks": sum(r["checks"] for r in rounds),
        "loadgen_lag_p99_s": percentile(lags, 99.0),
        "p90_samples_beyond": samples_beyond(n, 90.0),
    }
    return summary


def git_sha():
    """The checkout's commit; ``None`` outside a git work tree of its own
    (git would otherwise report an enclosing repository's commit)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args):
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, env=child_env(), timeout=60)
    numpy_v, scipy_v = (versions.stdout.split() + [None, None])[:2]
    env = child_env()
    return {
        "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy_v, "scipy": scipy_v, "machine": platform.machine(),
        "blas_threads": {k: env.get(k) for k in BLAS_THREAD_VARIABLES},
        "started_unix": time.time(),
    }


def print_summary(name, summary, trace):
    print(f"== {name} ({'traced' if trace else 'untraced'}, "
          f"{len(summary['rounds'])} round(s)) ==")
    for key, metric in (summary.get("metrics") or {}).items():
        print(f"  {key:<32} {metric['value']:>14.6g} {metric['unit']:<9} "
              f"n={metric['samples']}")
    for key, value in (summary.get("per_layer") or {}).items():
        print(f"  {key:<32} {value:>14.6g} {PER_LAYER_METRICS[key]}")
    for key, value in (summary.get("extras") or {}).items():
        print(f"  {key:<32} {value:>14.6g} "
              f"{WORKLOAD_LAYER_METRICS[key]}")
    print(f"  {'error_rate':<32} {summary['error_rate']:>14.6g} fraction  "
          f"n={summary['attempted']} ({summary['failed']} failed)")
    for message in summary["errors"][:5]:
        print(f"  ! {message}")


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [0, 1] if args.smoke else [args.trace]
    doc = {"schema": "bench-result/1", "provenance": provenance(args),
           "workloads": {}}
    metrics = {}
    attempted = failed = 0
    for trace in modes:
        for name in names:
            if args.smoke:
                seconds = SMOKE["seconds"]
                per_round = SMOKE["min_requests"]
                warmup = SMOKE["warmup"]
                setup_only = SMOKE["setup_only_rounds"]
            else:
                seconds = args.seconds / ROUNDS
                per_round = math.ceil(MIN_REQUESTS / ROUNDS)
                warmup = WARMUP_S
                setup_only = SETUP_ONLY_ROUNDS
            # Set-up-only interpreters take round numbers after the
            # measured rounds', so their inputs differ from all of those.
            setups = [] if trace else [
                run_round(name, args.seed, ROUNDS + k, seconds, per_round,
                          warmup, trace, setup_only=True)
                for k in range(setup_only)]
            rounds = [run_round(name, args.seed, k, seconds, per_round,
                                warmup, trace)
                      for k in range(1 if trace else ROUNDS)]
            summary = summarize(name, rounds, trace, setups)
            doc["workloads"].setdefault(name, {})[
                "traced" if trace else "untraced"] = summary
            print_summary(name, summary, trace)
            attempted += summary["attempted"]
            failed += summary["failed"]
            label = "{}" if len(names) == 1 else name + "/{}"
            if trace:
                for key, unit in PER_LAYER_METRICS.items():
                    if key in summary.get("per_layer", {}):
                        metrics[label.format(key)] = {
                            "value": summary["per_layer"][key], "unit": unit}
            else:
                for key, metric in summary.get("metrics", {}).items():
                    if key in E2E_METRICS:
                        metrics[label.format(key)] = {
                            "value": metric["value"], "unit": metric["unit"]}
    correct = failed == 0
    doc.update(correct=correct, attempted=attempted, failed=failed)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(doc, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
