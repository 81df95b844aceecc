"""Service-layer lifecycle battery (DESIGN.md §13).

Covers the acceptance criteria of the noise-analysis service:
submit/poll/wait/cancel, content-addressed store hits on identical
resubmission *with zero kernel solves* (proven from the job recorder),
persistence across queue instances, worker-crash recovery and
checkpoint/resume riding the executor seams unchanged, batch-endpoint
parity (bit-identical to independent sweeps), and budget-exceeded jobs
degrading into partial results with failure records — never into a
stored artifact a later hit could serve as clean.
"""

import json

import numpy as np
import pytest

from repro.diagnostics.budget import SweepBudget
from repro.errors import ReproError
from repro.mft.context import clear_sweep_contexts
from repro.obs import Recorder
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SweepCheckpoint,
)
from repro.service import (
    DirectoryResultStore,
    JobQueue,
    JobSpec,
    JobStatus,
    MemoryResultStore,
    ResultStore,
    SqliteResultStore,
    WorkerPool,
    job_key,
    open_store,
)

#: 12 finite frequencies -> 3 chunks of 4 with ``CHUNK``.
GRID = np.linspace(100.0, 4e4, 12)
CHUNK = 4
SPP = 16


@pytest.fixture
def spec(rc_system):
    clear_sweep_contexts()
    return JobSpec(rc_system, GRID, segments_per_phase=SPP)


def _sweep_spans(recorder):
    return [s for s in recorder.spans if s.name == "mft.sweep"]


class TestJobSpec:
    def test_rejects_empty_grid(self, rc_system):
        with pytest.raises(ReproError, match="at least one frequency"):
            JobSpec(rc_system, np.array([]))

    def test_rejects_unservable_solvers(self, rc_system):
        for solver in ("brute-force", "monte-carlo"):
            with pytest.raises(ReproError, match="not servable"):
                JobSpec(rc_system, GRID, solver=solver)

    def test_rejects_bad_on_failure(self, rc_system):
        with pytest.raises(ReproError, match="on_failure"):
            JobSpec(rc_system, GRID, on_failure="explode")

    def test_frequencies_normalized_to_float_array(self, rc_system):
        job = JobSpec(rc_system, [100, 200])
        assert job.frequencies.dtype == np.float64
        assert job.frequencies.shape == (2,)


class TestJobKey:
    def test_stable_across_identical_specs(self, rc_system):
        a = JobSpec(rc_system, GRID, segments_per_phase=SPP)
        b = JobSpec(rc_system, GRID.copy(), segments_per_phase=SPP)
        assert job_key(a) == job_key(b)

    @pytest.mark.parametrize("mutation", [
        {"frequencies": GRID * 1.01},
        {"segments_per_phase": SPP * 2},
        {"output_row": 1},
        {"solver": "spectral-batch"},
        {"attribute_sources": True},
    ])
    def test_sensitive_to_everything_that_changes_values(
            self, rc_system, mutation):
        base = {"frequencies": GRID, "segments_per_phase": SPP}
        reference = JobSpec(rc_system, **base)
        changed = JobSpec(rc_system, **{**base, **mutation})
        assert job_key(reference) != job_key(changed)

    def test_insensitive_to_execution_knobs(self, rc_system):
        # Backend/chunking/retry never change the values a job
        # produces, so they must not fragment the content address.
        plain = JobSpec(rc_system, GRID, segments_per_phase=SPP)
        tuned = JobSpec(rc_system, GRID, segments_per_phase=SPP,
                        chunk_size=2, retry=RetryPolicy(max_retries=5))
        assert job_key(plain) == job_key(tuned)


class TestResultStores:
    @pytest.fixture(params=["memory", "directory", "sqlite"])
    def store(self, request, tmp_path):
        if request.param == "memory":
            return MemoryResultStore()
        if request.param == "directory":
            return DirectoryResultStore(tmp_path / "results")
        return SqliteResultStore(tmp_path / "results.db")

    @pytest.fixture
    def psd_result(self, rc_system):
        from repro.analysis.api import NoiseAnalysis
        clear_sweep_contexts()
        return NoiseAnalysis(
            rc_system, segments_per_phase=SPP).psd_sweep(GRID)

    def test_round_trip_and_telemetry(self, store, psd_result):
        key = "ab" * 32
        assert store.get(key) is None
        store.put(key, psd_result)
        assert key in store
        back = store.get(key)
        assert np.array_equal(back.psd, psd_result.psd)
        assert np.array_equal(back.frequencies, psd_result.frequencies)
        telemetry = store.telemetry()
        assert telemetry["total_hits"] == 1
        assert telemetry["total_misses"] == 1
        assert telemetry["size"] == 1
        assert telemetry["backend"] == type(store).__name__

    def test_limit_evicts_oldest_first(self, psd_result, tmp_path):
        for store in (MemoryResultStore(limit=2),
                      DirectoryResultStore(tmp_path / "d", limit=2),
                      SqliteResultStore(tmp_path / "s.db", limit=2)):
            keys = ["%02d" % i * 32 for i in range(3)]
            for key in keys:
                store.put(key, psd_result)
            assert len(store) == 2
            assert store.keys() == keys[1:]
            assert store.get(keys[0]) is None
            assert store.stats.evictions == {"result": 1}

    def test_clear_keeps_counters(self, store, psd_result):
        store.put("cd" * 32, psd_result)
        store.get("cd" * 32)
        store.clear()
        assert len(store) == 0
        assert store.telemetry()["total_hits"] == 1

    def test_open_store_dispatch(self, tmp_path):
        assert isinstance(open_store(None), MemoryResultStore)
        assert isinstance(open_store(tmp_path / "dir"),
                          DirectoryResultStore)
        assert isinstance(open_store(tmp_path / "x.db"),
                          SqliteResultStore)
        existing = MemoryResultStore()
        assert open_store(existing) is existing


class TestSubmitPollWaitCancel:
    def test_lifecycle_to_done(self, spec):
        with JobQueue() as queue:
            handle = queue.submit(spec)
            result = queue.wait(handle, timeout=120.0)
        assert queue.poll(handle) is JobStatus.DONE
        assert handle.done()
        assert result.job_id == handle.id
        assert not result.served_from_store
        assert result.runtime_seconds > 0.0
        assert queue.counters["computed"] == 1

    def test_result_matches_direct_sweep(self, spec, rc_system):
        from repro.analysis.api import NoiseAnalysis
        with JobQueue() as queue:
            served = queue.submit(spec).wait(timeout=120.0)
        clear_sweep_contexts()
        direct = NoiseAnalysis(
            rc_system, segments_per_phase=SPP).psd_sweep(GRID)
        assert served.result.psd.tobytes() == direct.psd.tobytes()

    def test_cancel_pending_job(self, spec):
        queue = JobQueue()
        # Pin the dispatcher so the job deterministically stays PENDING.
        queue._ensure_worker = lambda: None
        try:
            handle = queue.submit(spec)
            assert queue.poll(handle) is JobStatus.PENDING
            assert queue.cancel(handle)
            assert queue.poll(handle) is JobStatus.CANCELLED
            with pytest.raises(ReproError, match="cancelled"):
                handle.wait(timeout=1.0)
            assert queue.counters["cancelled"] == 1
        finally:
            queue.close(timeout=5.0)

    def test_cancel_finished_job_returns_false(self, spec):
        with JobQueue() as queue:
            handle = queue.submit(spec)
            handle.wait(timeout=120.0)
            assert not queue.cancel(handle)

    def test_submit_rejects_non_spec(self):
        with JobQueue() as queue:
            with pytest.raises(ReproError, match="JobSpec"):
                queue.submit({"frequencies": GRID})

    def test_submit_after_close_raises(self, spec):
        queue = JobQueue()
        queue.close()
        with pytest.raises(ReproError, match="closed"):
            queue.submit(spec)


class TestStoreHit:
    def test_identical_resubmit_is_served_with_zero_solves(self, spec,
                                                           rc_system):
        with JobQueue() as queue:
            first = queue.submit(spec).wait(timeout=120.0)
            resubmit = JobSpec(rc_system, GRID, segments_per_phase=SPP)
            again = queue.submit(resubmit)
            served = again.wait(timeout=120.0)
            assert served.served_from_store
            # Zero kernel solves, proven from the job's own recorder:
            # a computed job records an ``mft.sweep`` span; a served
            # one records nothing at all.
            assert _sweep_spans(again.recorder) == []
            assert served.result.psd.tobytes() == \
                first.result.psd.tobytes()
            assert queue.counters["served_from_store"] == 1
            assert queue.store.telemetry()["total_hits"] == 1

    def test_inflight_duplicate_hits_at_dequeue(self, spec, rc_system):
        # Submit the twin while the original is still pending: the
        # submit-time lookup misses, but FIFO order guarantees the
        # original finished before the twin runs, so the dequeue-time
        # lookup serves it.
        with JobQueue() as queue:
            original = queue.submit(spec)
            twin = queue.submit(
                JobSpec(rc_system, GRID, segments_per_phase=SPP))
            assert original.wait(timeout=120.0).served_from_store \
                is False
            assert twin.wait(timeout=120.0).served_from_store

    def test_store_persists_across_queue_instances(self, spec,
                                                   rc_system, tmp_path):
        path = tmp_path / "results.db"
        with JobQueue(store=path) as queue:
            queue.submit(spec).wait(timeout=120.0)
        with JobQueue(store=path) as queue:
            handle = queue.submit(
                JobSpec(rc_system, GRID, segments_per_phase=SPP))
            assert handle.wait(timeout=120.0).served_from_store
            assert _sweep_spans(handle.recorder) == []

    def test_degraded_results_are_never_stored(self, rc_system):
        bad = GRID.copy()
        bad[3] = np.nan
        clear_sweep_contexts()
        with JobQueue() as queue:
            first = queue.submit(
                JobSpec(rc_system, bad, segments_per_phase=SPP))
            result = first.wait(timeout=120.0)
            assert result.result.n_failed > 0
            assert queue.counters["stored"] == 0
            again = queue.submit(
                JobSpec(rc_system, bad, segments_per_phase=SPP))
            assert not again.wait(timeout=120.0).served_from_store


class TestBudgetDegradation:
    def test_exceeded_budget_returns_partial_not_stored(self,
                                                        rc_system):
        clear_sweep_contexts()
        spent = SweepBudget(wall_clock_seconds=0.0)
        spent.exceeded()  # start the clock at zero allowance
        job = JobSpec(rc_system, GRID, segments_per_phase=SPP,
                      chunk_size=CHUNK, budget=spent)
        with JobQueue() as queue:
            result = queue.submit(job).wait(timeout=120.0)
            assert queue.counters["stored"] == 0
        sweep = result.result
        assert sweep.n_failed == sweep.frequencies.size
        assert np.all(np.isnan(sweep.psd))
        stages = {f.stage for f in sweep.info["failures"]}
        assert stages == {"budget"}


class TestBatchEndpoint:
    def test_batch_parity_with_independent_sweeps(self, rc_system,
                                                  lowpass_model):
        from repro.analysis.api import NoiseAnalysis
        systems = [rc_system, lowpass_model.system]
        grids = [GRID, np.linspace(100.0, 12e3, 8)]
        specs = [JobSpec(system, grid, segments_per_phase=SPP)
                 for system in systems for grid in grids]
        clear_sweep_contexts()
        with JobQueue() as queue:
            results = queue.run_batch(specs, timeout=240.0)
        assert len(results) == len(specs)
        for job, served in zip(specs, results):
            clear_sweep_contexts()
            direct = NoiseAnalysis(
                job.model_or_system,
                segments_per_phase=SPP).psd_sweep(job.frequencies)
            assert served.result.psd.tobytes() == direct.psd.tobytes()
            assert [f.index for f in served.result.info["failures"]] \
                == [f.index for f in direct.info["failures"]]

    def test_batch_through_worker_pool_matches_serial(self, rc_system):
        specs = [JobSpec(rc_system, GRID * (1.0 + 0.1 * j),
                         segments_per_phase=SPP, chunk_size=CHUNK)
                 for j in range(2)]
        clear_sweep_contexts()
        with JobQueue() as queue:
            serial = queue.run_batch(specs, timeout=240.0)
        clear_sweep_contexts()
        with JobQueue(backend="process", max_workers=2) as queue:
            pooled = queue.run_batch(specs, timeout=240.0)
        for a, b in zip(serial, pooled):
            assert a.result.psd.tobytes() == b.result.psd.tobytes()


class TestCrashRecoveryAndResume:
    def test_worker_crash_mid_chunk_recovers(self, spec, rc_system):
        with JobQueue() as queue:
            clean = queue.submit(spec).wait(timeout=120.0)
        plan = FaultPlan([FaultSpec("executor.chunk", "crash",
                                    match={"chunk": CHUNK})])
        faulted_spec = JobSpec(
            rc_system, GRID, segments_per_phase=SPP, chunk_size=CHUNK,
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.001),
            faults=plan)
        clear_sweep_contexts()
        with JobQueue(backend="process", max_workers=2) as queue:
            recovered = queue.submit(faulted_spec).wait(timeout=120.0)
        meta = recovered.result.info["executor"]
        assert meta["n_worker_crashes"] >= 1
        assert meta["n_chunks_failed"] == 0
        assert recovered.result.psd.tobytes() == \
            clean.result.psd.tobytes()

    def test_killed_job_resumes_from_checkpoint(self, spec, rc_system,
                                                tmp_path):
        with JobQueue() as queue:
            clean = queue.submit(spec).wait(timeout=120.0)
        ckpt = tmp_path / "ckpt"
        plan = FaultPlan([FaultSpec("executor.dispatch", "kill",
                                    match={"chunk": 2 * CHUNK})])
        killed = JobSpec(rc_system, GRID, segments_per_phase=SPP,
                         chunk_size=CHUNK, faults=plan, checkpoint=ckpt)
        clear_sweep_contexts()
        with JobQueue() as queue:
            handle = queue.submit(killed)
            with pytest.raises(ReproError, match="InjectedSweepKill"):
                handle.wait(timeout=120.0)
            assert queue.counters["failed"] == 1
            # The failed job was never stored, so the resubmit (same
            # content address, no faults) recomputes — resuming the
            # two chunks the killed run already checkpointed.
            resume = JobSpec(rc_system, GRID, segments_per_phase=SPP,
                             chunk_size=CHUNK,
                             checkpoint=SweepCheckpoint(ckpt))
            assert job_key(resume) == job_key(killed)
            resumed = queue.submit(resume).wait(timeout=120.0)
        meta = resumed.result.info["executor"]
        assert meta["n_chunks_resumed"] == 2
        assert not resumed.served_from_store
        assert resumed.result.psd.tobytes() == clean.result.psd.tobytes()


class TestProgress:
    def test_progress_counts_chunks_and_stages(self, rc_system):
        job = JobSpec(rc_system, GRID, segments_per_phase=SPP,
                      chunk_size=CHUNK)
        with JobQueue() as queue:
            handle = queue.submit(job)
            handle.wait(timeout=120.0)
            progress = queue.progress(handle)
        assert progress["job_id"] == handle.id
        assert progress["status"] == "done"
        assert progress["chunks_done"] == GRID.size // CHUNK
        assert any(stage["name"] == "mft.sweep"
                   for stage in progress["stages"])


class TestWorkerPool:
    def test_validation(self):
        # Same rule as SweepExecutor: an integer >= 1, never coerced.
        for bad in (0, 2.7, True, "2"):
            with pytest.raises(ReproError, match="max_workers"):
                WorkerPool(max_workers=bad)

    def test_acquire_is_idempotent_and_respawn_is_not(self):
        with WorkerPool(max_workers=1) as pool:
            first = pool.acquire()
            assert pool.acquire() is first
            fresh = pool.respawn()
            assert fresh is not first
            assert pool.acquire() is fresh
            assert pool.n_respawns == 1
            assert pool.telemetry()["live"]

    def test_shutdown_closes_for_good(self):
        pool = WorkerPool(max_workers=1)
        pool.acquire()
        pool.shutdown()
        with pytest.raises(ReproError, match="shut down"):
            pool.acquire()
        with pytest.raises(ReproError, match="shut down"):
            pool.respawn()


class TestQueueConfiguration:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="backend"):
            JobQueue(backend="rocket")

    def test_zero_workers_rejected_not_defaulted(self):
        with pytest.raises(ReproError, match="max_workers"):
            JobQueue(backend="process", max_workers=0)
        with JobQueue(backend="process") as queue:
            assert queue.pool.max_workers == 2

    def test_backend_conflicting_with_shared_pool_rejected(self):
        with WorkerPool(max_workers=1) as pool:
            with pytest.raises(ReproError, match="conflicts"):
                JobQueue(pool=pool, backend="serial")

    def test_shared_pool_is_not_shut_down_by_queue(self, spec):
        with WorkerPool(max_workers=2) as pool:
            with JobQueue(pool=pool) as queue:
                queue.submit(spec).wait(timeout=120.0)
            # The queue is closed; the shared pool must still work.
            assert pool.acquire() is not None

    def test_telemetry_shape(self, spec):
        with JobQueue() as queue:
            queue.submit(spec).wait(timeout=120.0)
            telemetry = queue.telemetry()
        assert telemetry["backend"] == "serial"
        assert telemetry["jobs"]["submitted"] == 1
        assert telemetry["store"]["size"] == 1
        assert telemetry["pool"] is None


class TestJobResultExports:
    @pytest.fixture
    def served(self, spec):
        with JobQueue() as queue:
            return queue.submit(spec).wait(timeout=120.0)

    def test_to_table_carries_provenance(self, served):
        table = served.to_table()
        assert f"job {served.job_id}" in table
        assert "computed in" in table
        assert "frequency_hz" in table

    def test_to_json_is_json_ready(self, served):
        payload = served.to_json()
        encoded = json.dumps(payload)
        assert payload["served_from_store"] is False
        assert payload["result"]["kind"] == "psd"
        assert json.loads(encoded)["job_id"] == served.job_id

    def test_to_csv_delegates_to_result(self, served, tmp_path):
        path = served.to_csv(tmp_path / "job.csv")
        text = path.read_text() if hasattr(path, "read_text") else \
            open(path).read()
        assert "frequency_hz" in text
