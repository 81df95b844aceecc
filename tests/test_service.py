"""Service-layer lifecycle battery (DESIGN.md §13).

Covers the acceptance criteria of the noise-analysis service:
submit/poll/wait/cancel, content-addressed store hits on identical
resubmission *with zero kernel solves* (proven from the job recorder),
persistence across queue instances, batch-endpoint parity
(bit-identical to independent sweeps), and budget-exceeded jobs
degrading into partial results with failure records — never into a
stored artifact a later hit could serve as clean.
"""

import gc
import json
import re
import sqlite3
import weakref

import numpy as np
import pytest

from repro.diagnostics.budget import SweepBudget
from repro.errors import ReproError
from repro.mft.context import clear_sweep_contexts
from repro.obs import Recorder
from repro.service import (
    JobQueue,
    JobSpec,
    JobStatus,
    SqliteResultStore,
    job_key,
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

    def test_solver_normalised_before_servability_check(self, rc_system):
        with pytest.raises(ReproError, match="not servable"):
            JobSpec(rc_system, GRID, solver="Brute-Force")
        assert JobSpec(rc_system, GRID,
                       solver=" Spectral-Batch ").solver == "spectral-batch"
        assert JobSpec(rc_system, GRID).solver == "mft"

    def test_unknown_solver_rejected_eagerly(self, rc_system):
        with pytest.raises(ReproError, match="rocket"):
            JobSpec(rc_system, GRID, solver="rocket")

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

    @pytest.mark.parametrize("spelling, canonical", [
        (None, "mft"),
        ("MFT", "mft"),
        ("Spectral-Batch", "spectral-batch"),
    ])
    def test_solver_spellings_share_one_key(self, rc_system, spelling,
                                            canonical):
        # Persisted stores are addressed by the canonical solver name.
        base = {"frequencies": GRID, "segments_per_phase": SPP}
        assert job_key(JobSpec(rc_system, solver=spelling, **base)) \
            == job_key(JobSpec(rc_system, solver=canonical, **base))

    def test_insensitive_to_execution_knobs(self, rc_system):
        # Chunking never changes the values a job produces, so it
        # must not fragment the content address.
        plain = JobSpec(rc_system, GRID, segments_per_phase=SPP)
        tuned = JobSpec(rc_system, GRID, segments_per_phase=SPP,
                        chunk_size=2)
        assert job_key(plain) == job_key(tuned)


class TestResultStores:
    # One class over both of its targets: an in-process ":memory:"
    # table, and a sqlite file.
    @pytest.fixture(params=["memory", "sqlite"])
    def target(self, request, tmp_path):
        return ":memory:" if request.param == "memory" else \
            tmp_path / "results.db"

    @pytest.fixture
    def store(self, target):
        store = SqliteResultStore(target)
        yield store
        store.close()

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
        assert telemetry["backend"] == "SqliteResultStore"

    def test_limit_evicts_oldest_first(self, psd_result, tmp_path):
        for target in (":memory:", tmp_path / "s.db"):
            store = SqliteResultStore(target, limit=2)
            keys = ["%02d" % i * 32 for i in range(3)]
            for key in keys:
                store.put(key, psd_result)
            assert len(store) == 2
            assert store.keys() == keys[1:]
            assert store.get(keys[0]) is None
            assert store.stats.evictions == {"result": 1}

    def test_reput_refreshes_recency(self, target, psd_result):
        store = SqliteResultStore(target, limit=2)
        first, second, third = ("%02d" % i * 32 for i in range(3))
        for key in (first, second, first, third):
            store.put(key, psd_result)
        assert store.keys() == [first, third]

    @pytest.mark.parametrize("bad", [0, -1, 2.7, True, "2"])
    def test_limit_validated_not_coerced(self, tmp_path, bad):
        # Same rule as chunk_size: an integer >= 1, never coerced; a
        # bad limit is refused before any file is created.
        with pytest.raises(ReproError, match="limit"):
            SqliteResultStore(tmp_path / "s.db", limit=bad)
        assert not (tmp_path / "s.db").exists()

    def test_clear_keeps_counters(self, store, psd_result):
        store.put("cd" * 32, psd_result)
        store.get("cd" * 32)
        store.clear()
        assert len(store) == 0
        assert store.telemetry()["total_hits"] == 1

    def test_close_is_idempotent(self, store):
        store.close()
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            len(store)


class TestQueueStoreDispatch:
    def test_none_opens_a_memory_store(self):
        with JobQueue() as queue:
            assert isinstance(queue.store, SqliteResultStore)
            assert str(queue.store.path) == ":memory:"

    def test_path_opens_a_file_store_with_limit(self, tmp_path):
        with JobQueue(store=tmp_path / "sub" / "x.db",
                      store_limit=3) as queue:
            assert queue.store.path == tmp_path / "sub" / "x.db"
            assert queue.store.limit == 3
        assert (tmp_path / "sub" / "x.db").is_file()

    def test_instance_passes_through(self):
        existing = SqliteResultStore(":memory:")
        with JobQueue(store=existing) as queue:
            assert queue.store is existing

    def test_instance_with_store_limit_is_refused(self):
        with pytest.raises(ReproError, match="limit"):
            JobQueue(store=SqliteResultStore(":memory:"), store_limit=2)

    def test_existing_directory_is_refused_by_name(self, tmp_path):
        with pytest.raises(ReproError, match=re.escape(str(tmp_path))):
            JobQueue(store=tmp_path)

    def test_close_closes_only_a_store_the_queue_opened(self, tmp_path):
        with JobQueue(store=tmp_path / "x.db") as queue:
            assert len(queue.store) == 0
        with pytest.raises(sqlite3.ProgrammingError):
            len(queue.store)
        queue.close()  # idempotent
        queue.store.close()
        passed = SqliteResultStore(tmp_path / "y.db")
        with JobQueue(store=passed):
            pass
        assert len(passed) == 0
        passed.close()


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

    def test_finished_handle_is_not_retained(self, spec, rc_system):
        with JobQueue() as queue:
            handle = queue.submit(spec)
            handle.wait(timeout=120.0)
            finished = weakref.ref(handle)
            del handle
            # A second computed job proves the dispatcher moved on.
            queue.submit(JobSpec(rc_system, GRID * 1.1,
                                 segments_per_phase=SPP)).wait(
                                     timeout=120.0)
            gc.collect()
            assert finished() is None

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


class TestQueueConfiguration:
    def test_pool_option_is_gone(self):
        with pytest.raises(TypeError, match="pool"):
            JobQueue(pool=object())

    def test_telemetry_shape(self, spec):
        with JobQueue() as queue:
            queue.submit(spec).wait(timeout=120.0)
            telemetry = queue.telemetry()
        assert telemetry["jobs"]["submitted"] == 1
        assert telemetry["store"]["size"] == 1


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
