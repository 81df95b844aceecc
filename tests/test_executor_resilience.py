"""Executor resilience: retry, crash recovery, checkpoint/resume.

Integration suite for DESIGN.md §10 on the switched-RC circuit:
injected transient failures, worker crashes (in-process exceptions on
the serial backend and hard ``os._exit`` process deaths), per-chunk
timeouts, and dispatcher kills must either be recovered
*bit-identically* to a fault-free sweep or degrade into the documented
NaN + ``FrequencyFailure`` contract — never into silently wrong
numbers.  Also pins the executor's argument
validation and the budget-spent-before-first-dispatch edge.
"""

import numpy as np
import pytest

from repro.diagnostics.budget import SweepBudget
from repro.errors import ReproError
from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer
from repro.mft.executor import SweepExecutor
from repro.obs import Recorder
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedSweepKill,
    RetryPolicy,
    SweepCheckpoint,
)

BACKENDS = ["serial", "process"]

#: Fast but non-trivial: 12 finite frequencies -> 3 chunks of 4.
N_FREQS = 12
CHUNK = 4


@pytest.fixture
def grid():
    return np.linspace(100.0, 4e4, N_FREQS)


@pytest.fixture
def analyzer(rc_system):
    clear_sweep_contexts()
    return MftNoiseAnalyzer(rc_system)


def _sweep(analyzer, grid, backend, **kwargs):
    kwargs.setdefault("max_workers", 2)
    executor = SweepExecutor(backend=backend, chunk_size=CHUNK,
                             max_workers=kwargs.pop("max_workers"),
                             retry=kwargs.pop("retry", None),
                             faults=kwargs.pop("faults", None))
    return executor.run(analyzer, grid, **kwargs)


def _assert_bit_identical(reference, candidate, label):
    assert reference.psd.tobytes() == candidate.psd.tobytes(), (
        f"{label}: values are not bit-identical")
    ref_failures = [(f.index, f.stage) for f in reference.failures]
    cand_failures = [(f.index, f.stage) for f in candidate.failures]
    assert ref_failures == cand_failures, f"{label}: failures differ"


class TestArgumentValidation:
    """Satellite: bad worker/chunk knobs fail fast with the range."""

    @pytest.mark.parametrize("value", [0, -1, -8])
    def test_rejects_nonpositive_workers(self, value):
        with pytest.raises(ReproError, match="max_workers"):
            SweepExecutor(backend="process", max_workers=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_rejects_nonpositive_chunk_size(self, value):
        with pytest.raises(ReproError, match="chunk_size"):
            SweepExecutor(chunk_size=value)

    @pytest.mark.parametrize("value", [True, False, 2.0, "4"])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ReproError, match="max_workers"):
            SweepExecutor(backend="process", max_workers=value)
        with pytest.raises(ReproError, match="chunk_size"):
            SweepExecutor(chunk_size=value)

    def test_error_names_allowed_range(self):
        with pytest.raises(ReproError, match=r"\[1, "):
            SweepExecutor(max_workers=0)

    def test_rejects_non_plan_faults(self):
        with pytest.raises(ReproError, match="FaultPlan"):
            SweepExecutor(faults=[FaultSpec("mft.solve", "transient")])

    def test_rejects_non_policy_retry(self):
        with pytest.raises(ReproError, match="RetryPolicy"):
            SweepExecutor(retry=3)

    def test_thread_backend_rejected_everywhere(self, analyzer, grid):
        from repro.service import JobQueue

        allowed = r"expected one of \('serial', 'process'\)"
        with pytest.raises(ReproError, match=allowed):
            analyzer.psd_sweep(grid, parallel="thread")
        with pytest.raises(ReproError, match=allowed):
            SweepExecutor(backend="thread")
        with pytest.raises(ReproError, match=allowed):
            JobQueue(backend="thread")

    def test_pool_option_is_gone(self, analyzer, grid):
        # Each executor owns its process pool; no entry point takes one.
        with pytest.raises(TypeError, match="pool"):
            SweepExecutor(backend="process", pool=object())
        for solver in ("mft", "spectral-batch", "brute-force"):
            with pytest.raises(TypeError, match="pool"):
                analyzer.psd_sweep(grid, solver=solver, pool=object())

    def test_baseline_solvers_reject_resilience_knobs(self, analyzer,
                                                      grid):
        with pytest.raises(ReproError, match="checkpoint"):
            analyzer.psd_sweep(grid, solver="brute-force",
                               checkpoint="/tmp/nope")
        with pytest.raises(ReproError, match="retry"):
            analyzer.psd_sweep(grid, solver="brute-force",
                               retry=RetryPolicy())


class TestBudgetSpentBeforeDispatch:
    """Satellite: a pre-spent budget still yields a well-formed result."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_frequencies_become_budget_failures(self, analyzer,
                                                    grid, backend):
        result = _sweep(analyzer, grid, backend,
                        budget=SweepBudget(wall_clock_seconds=0.0))
        assert result.psd.shape == grid.shape
        assert np.all(np.isnan(result.psd))
        failures = result.failures
        assert [f.index for f in failures] == list(range(grid.size))
        assert {f.stage for f in failures} == {"budget"}
        assert result.diagnostics.by_code("budget-exhausted")
        meta = result.info["executor"]
        assert meta["n_chunks_skipped"] == meta["n_chunks"]
        assert meta["n_chunks_failed"] == 0
        assert meta["n_retries"] == 0


class TestTransientRecovery:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_transient_faults_recover_bit_identical(self, analyzer,
                                                    grid, backend):
        reference = _sweep(analyzer, grid, backend)
        plan = FaultPlan([FaultSpec("mft.solve", "transient",
                                    rate=0.4)], seed=5)
        faulted = _sweep(analyzer, grid, backend, faults=plan)
        meta = faulted.info["executor"]
        assert meta["n_retries"] > 0, "plan injected nothing"
        assert meta["n_chunks_failed"] == 0
        _assert_bit_identical(reference, faulted,
                              f"{backend} transient recovery")
        assert faulted.diagnostics.by_code("chunk-retry")

    def test_retry_disabled_degrades_to_nan(self, analyzer, grid):
        plan = FaultPlan([FaultSpec("executor.chunk", "transient",
                                    match={"chunk": 0})])
        result = _sweep(analyzer, grid, "serial", faults=plan,
                        retry=False)
        assert np.all(np.isnan(result.psd[:CHUNK]))
        assert np.all(np.isfinite(result.psd[CHUNK:]))
        failed = [f for f in result.failures
                  if f.stage == "retry-exhausted"]
        assert [f.index for f in failed] == list(range(CHUNK))
        assert result.info["executor"]["n_chunks_failed"] == 1
        assert result.diagnostics.by_code("retry-exhausted")

    def test_exhausted_retries_degrade_to_nan(self, analyzer, grid):
        # Fires on attempts 0..3, one more than max_retries=2 allows.
        plan = FaultPlan([FaultSpec("executor.chunk", "transient",
                                    attempts=4, match={"chunk": 4})])
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                             jitter=0.0)
        result = _sweep(analyzer, grid, "serial", faults=plan,
                        retry=policy)
        assert np.all(np.isnan(result.psd[CHUNK:2 * CHUNK]))
        assert np.all(np.isfinite(result.psd[:CHUNK]))
        assert result.info["executor"]["n_retries"] == 2
        assert result.info["executor"]["n_chunks_failed"] == 1

    def test_numerical_errors_are_not_retried(self, analyzer, grid):
        # on_failure="raise" must keep its contract: ReproError
        # propagates immediately, never enters the retry loop.
        bad = np.concatenate([grid, [np.nan]])
        with pytest.raises(ReproError):
            _sweep(analyzer, bad, "serial", on_failure="raise",
                   retry=RetryPolicy(max_retries=5))


class TestWorkerCrashRecovery:
    @pytest.mark.parametrize("backend", ["serial"])
    def test_in_process_crash_is_retried(self, analyzer, grid, backend):
        reference = _sweep(analyzer, grid, backend)
        plan = FaultPlan([FaultSpec("executor.chunk", "crash",
                                    match={"chunk": 4})])
        faulted = _sweep(analyzer, grid, backend, faults=plan)
        meta = faulted.info["executor"]
        assert meta["n_worker_crashes"] >= 1
        assert meta["n_chunks_failed"] == 0
        _assert_bit_identical(reference, faulted,
                              f"{backend} crash recovery")

    def test_process_pool_respawn_after_hard_crash(self, analyzer,
                                                   grid):
        # kind="crash" in a forked worker is os._exit: the dispatcher
        # sees a genuine BrokenProcessPool, respawns, and requeues.
        reference = _sweep(analyzer, grid, "process")
        plan = FaultPlan([FaultSpec("executor.chunk", "crash",
                                    match={"chunk": 4})])
        faulted = _sweep(analyzer, grid, "process", faults=plan)
        meta = faulted.info["executor"]
        assert meta["n_worker_crashes"] >= 1
        assert meta["n_chunks_failed"] == 0
        _assert_bit_identical(reference, faulted,
                              "process pool respawn")
        assert faulted.diagnostics.by_code("worker-crash")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transients_plus_hard_crash_recover_bit_identical(
            self, analyzer, grid, seed):
        # The combined chaos plan: 20% transient solve failures on top
        # of one hard worker death on the middle chunk.
        reference = _sweep(analyzer, grid, "process")
        plan = FaultPlan([
            FaultSpec("mft.solve", "transient", rate=0.2),
            FaultSpec("executor.chunk", "crash", match={"chunk": 4}),
        ], seed=seed)
        faulted = _sweep(analyzer, grid, "process", faults=plan)
        meta = faulted.info["executor"]
        assert meta["n_retries"] >= 1
        assert meta["n_worker_crashes"] >= 1
        assert meta["n_chunks_failed"] == 0
        _assert_bit_identical(reference, faulted,
                              f"seed {seed} chaos recovery")

    def test_no_metric_double_count_after_process_crash(self, rc_system,
                                                        grid):
        # Satellite: the dead worker's private recorder copy dies with
        # it — after the retry recomputes, per-frequency counters must
        # equal the fault-free totals exactly.
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(rc_system, recorder=Recorder())
        plan = FaultPlan([FaultSpec("executor.chunk", "crash",
                                    match={"chunk": 4})])
        result = _sweep(analyzer, grid, "process", faults=plan)
        assert result.info["executor"]["n_worker_crashes"] >= 1
        counters = analyzer.recorder.counters
        assert counters.get("sweep.frequencies", 0) == grid.size
        assert counters.get("executor.worker_crashes", 0) >= 1
        assert counters.get("executor.retries", 0) >= 1
        assert analyzer.recorder.is_balanced()

    def test_recorder_pickles_and_merges_span_deltas(self, rc_system,
                                                     grid):
        # The crash-recovery machinery relies on process workers
        # recording into pickled private copies whose deltas merge
        # back under the dispatch span.
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(rc_system, recorder=Recorder())
        _sweep(analyzer, grid, "process")
        names = [span.name for span in analyzer.recorder.spans]
        assert names.count("executor.chunk") == N_FREQS // CHUNK
        assert analyzer.recorder.is_balanced()


class TestTimeouts:
    def test_slow_chunk_times_out_and_retries(self, analyzer, grid):
        reference = _sweep(analyzer, grid, "process")
        plan = FaultPlan([FaultSpec("executor.chunk", "slow",
                                    seconds=1.5, match={"chunk": 0})])
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                             jitter=0.0, chunk_timeout_seconds=0.3)
        faulted = _sweep(analyzer, grid, "process", faults=plan,
                         retry=policy)
        meta = faulted.info["executor"]
        assert meta["n_timeouts"] >= 1
        assert meta["n_chunks_failed"] == 0
        _assert_bit_identical(reference, faulted, "timeout retry")
        assert faulted.diagnostics.by_code("chunk-timeout")


class TestCheckpointResume:
    def test_kill_then_resume_is_bit_identical(self, analyzer, grid,
                                               tmp_path):
        reference = _sweep(analyzer, grid, "serial")
        store_path = tmp_path / "ckpt"
        plan = FaultPlan([FaultSpec("executor.dispatch", "kill",
                                    match={"chunk": 2 * CHUNK})])
        with pytest.raises(InjectedSweepKill):
            _sweep(analyzer, grid, "serial", faults=plan,
                   checkpoint=store_path)
        # Two of three chunks completed before the kill; the resumed
        # sweep may take the store object instead of the path.
        resumed = _sweep(analyzer, grid, "serial",
                         checkpoint=SweepCheckpoint(store_path))
        meta = resumed.info["executor"]
        assert meta["n_chunks_resumed"] == 2
        assert meta["checkpoint"] == str(store_path)
        _assert_bit_identical(reference, resumed, "kill/resume")
        assert resumed.diagnostics.by_code("checkpoint-resume")

    def test_completed_checkpoint_resumes_everything(self, analyzer,
                                                     grid, tmp_path):
        first = _sweep(analyzer, grid, "serial",
                       checkpoint=tmp_path / "ckpt")
        again = _sweep(analyzer, grid, "serial",
                       checkpoint=tmp_path / "ckpt")
        assert again.info["executor"]["n_chunks_resumed"] == 3
        _assert_bit_identical(first, again, "full resume")

    def test_checkpoint_rejects_different_grid(self, analyzer, grid,
                                               tmp_path):
        _sweep(analyzer, grid, "serial", checkpoint=tmp_path / "ckpt")
        other = grid * 2.0
        with pytest.raises(ReproError, match="different"):
            _sweep(analyzer, other, "serial",
                   checkpoint=tmp_path / "ckpt")

    def test_checkpoint_through_psd_sweep_api(self, analyzer, grid,
                                              tmp_path):
        result = analyzer.psd_sweep(grid, chunk_size=CHUNK,
                                    checkpoint=tmp_path / "ckpt")
        resumed = analyzer.psd_sweep(grid, chunk_size=CHUNK,
                                     checkpoint=tmp_path / "ckpt")
        assert resumed.info["executor"]["n_chunks_resumed"] == 3
        _assert_bit_identical(result, resumed, "psd_sweep checkpoint")
