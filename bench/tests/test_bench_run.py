"""The benchmark's command line against BENCHMARK.json."""

import json
import statistics
import subprocess
import sys
import time

import pytest

from calibration import calibrated
from common import (
    E2E_METRICS,
    PER_LAYER_METRICS,
    ROOT,
    WORKLOADS,
    load_benchmark,
)

SMOKE_LIMIT_S = 60.0


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "-o",
         str(out)], cwd=ROOT, capture_output=True, text=True,
        timeout=3 * SMOKE_LIMIT_S)
    elapsed = time.perf_counter() - started
    return proc, elapsed, json.loads(out.read_text())


def benchmarked_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def test_benchmark_json_matches_the_code():
    spec = load_benchmark()
    # In run order; the open loop reports no calibrated metrics.
    assert benchmarked_workloads(spec) == [
        w for w in WORKLOADS if w != "service-open-loop"]
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        PER_LAYER_METRICS
    assert all(0.0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_smoke_finishes_in_time_and_passes(smoke):
    proc, elapsed, doc = smoke
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert elapsed < SMOKE_LIMIT_S
    assert doc["correct"] and doc["failed"] == 0


def test_printed_metric_names_match_benchmark_json(smoke):
    proc, _elapsed, _doc = smoke
    spec = load_benchmark()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    # Every benchmarked workload prints every metric ...
    assert {f"{w}/{m}": unit for w in benchmarked_workloads(spec)
            for m, unit in units.items()}.items() <= printed.items()
    # ... and no workload prints a metric BENCHMARK.json lacks.
    for name, unit in printed.items():
        workload, metric = name.split("/")
        assert workload in WORKLOADS and units[metric] == unit


def test_result_file_records_provenance(smoke):
    _proc, _elapsed, doc = smoke
    prov = doc["provenance"]
    for key in ("git_sha", "seed", "nproc", "python", "numpy", "scipy",
                "blas_threads"):
        assert key in prov
    untraced = doc["workloads"]["service-open-loop"]["untraced"]
    assert {"requests", "store_hits", "loadgen_lag_p99_s"} <= set(
        untraced["counts"])
    assert all(r["round_wall_s"] > 0 for r in untraced["rounds"])


def test_setup_is_the_median_over_every_interpreter(smoke):
    _proc, _elapsed, doc = smoke
    for entry in doc["workloads"].values():
        untraced = entry["untraced"]
        setups = untraced["setup_only"] + untraced["rounds"]
        assert untraced["setup_only"]
        metrics = untraced["metrics"]
        assert metrics["setup_s"]["value"] == statistics.median(
            calibrated(r["setup_s"], r["setup_probe_s"]) for r in setups)
        assert metrics["setup_wall_s"]["value"] == statistics.median(
            r["setup_s"] for r in setups)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-spot",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
