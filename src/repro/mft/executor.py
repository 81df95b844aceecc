"""Parallel frequency-sweep execution for the MFT engine.

The frequencies of a PSD sweep are independent — each is one periodic
steady-state solve — so a sweep shards naturally into chunks that run
concurrently. :class:`SweepExecutor` does exactly that — every MFT sweep,
:meth:`~repro.mft.engine.MftNoiseAnalyzer.psd` included (its ``serial``
backend), runs through it — with the same semantics on every backend:

* **Values**: identical per-frequency numerics (same analyzer, same
  solves), merged back in frequency order.
* **Partial failure**: a frequency whose fallback chain is exhausted
  contributes NaN plus a :class:`FrequencyFailure` with its *global*
  sweep index, exactly as in the serial sweep.
* **Diagnostics**: workers collect findings into chunk-local reports
  that are merged in chunk order; negative-PSD clipping is diagnosed
  once on the merged values, so severity counts match the serial sweep.
* **Budget**: the :class:`~repro.diagnostics.budget.SweepBudget` gates
  the *dispatch* of new chunks. Once spent, no further chunk is
  submitted and the remaining frequencies become ``budget``-stage
  failures — but in-flight chunks always run to completion; the
  executor never kills work it already started.

Backends: ``"serial"`` (in-process loop, the default) and
``"process"`` (the analyzer and its warmed
:class:`~repro.mft.context.SweepContext` are shipped to workers by fork
when available, pickle otherwise).  ``"process"`` is crash isolation
for :mod:`repro.resilience`, not a speedup: on a 2-CPU host it was
slower than serial on every sweep measured (DESIGN.md §8).  The
analyzer is warmed up
(:meth:`~repro.mft.engine.MftNoiseAnalyzer.warm_up`) before dispatch so
forked workers inherit the precomputed frequency-independent work.

Operational resilience (DESIGN.md §10): a chunk that fails for a
*non-numerical* reason — a worker process dying (broken pool), a chunk
running past its per-chunk timeout, an unexpected exception escaping
the worker body — is requeued with exponential backoff + jitter up to
``RetryPolicy.max_retries`` times, on a freshly respawned pool when the
old one broke.  Numerical failures (:class:`~repro.errors.ReproError`,
i.e. the ``on_failure="raise"`` contract and exhausted fallback chains)
are never retried — they propagate exactly as before.  A chunk that
exhausts its retries degrades to the NaN + :class:`FrequencyFailure`
partial-failure contract with stage ``"retry-exhausted"``,
``"worker-crash"``, or ``"timeout"``.  Every retry/crash/timeout is
counted on the analyzer's recorder and mirrored as a finding.  With a
``checkpoint=`` store each completed chunk is persisted as it merges,
and a re-run resumes from the completed set bit-identically
(:mod:`repro.resilience.checkpoint`).  Deterministic fault injection
for all of the above lives in :mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import collections
import concurrent.futures as cf
import dataclasses
import hashlib
import logging
import multiprocessing
import numbers
import os
import time

import numpy as np

from ..diagnostics.budget import as_budget
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError
from ..noise.result import PsdResult, clip_negative_psd, worst_negative_psd
from ..obs import span_summary
from ..resilience.checkpoint import SweepCheckpoint
from ..resilience.faults import (
    FaultPlan,
    InjectedWorkerCrash,
    activate,
    fire,
)
from ..resilience.retry import resolve_retry
from .context import CacheStats

logger = logging.getLogger(__name__)

_BACKENDS = ("serial", "process")

#: Default chunk size: large enough to amortise dispatch overhead,
#: small enough that the budget gate has frequent decision points.
_DEFAULT_CHUNK = 8

#: Default chunk size for ``solver="spectral-batch"``: each chunk is one
#: ω-block through the batched kernel, so larger blocks amortise the
#: per-block trace recursion and stacked solves across more frequencies.
_DEFAULT_SPECTRAL_CHUNK = 64

#: ``None`` and ``"mft"`` are the same per-frequency reference sweep —
#: ``"mft"`` is the unified-API spelling (:mod:`repro.noise.solvers`).
#: ``"param-batch"`` is the corner-sweep analyzer's flattened
#: (param, freq)-axis solver (:mod:`repro.mft.corners`); it is reached
#: through :func:`repro.mft.corners.corner_psd_sweep`, not the unified
#: solver registry.
_SOLVERS = (None, "mft", "spectral-batch", "param-batch")


def _fold_cache_delta(recorder, before, after):
    """Fold a cache-stats delta into a recorder's counters.

    Emits ``cache.<kind>`` aggregates plus ``cache.<kind>.<category>``
    per-category counters so serial and parallel sweeps over the same
    grid report identical metric counts.
    """
    delta = CacheStats.delta(before, after)
    for kind in ("hits", "misses", "evictions"):
        diffs = delta[kind]
        total = sum(diffs.values())
        if total:
            recorder.count(f"cache.{kind}", total)
        for category, n in diffs.items():
            recorder.count(f"cache.{kind}.{category}", n)


def _default_workers():
    return max(1, (os.cpu_count() or 1))


def _positive_int(name, value, default, minimum=1):
    """Validate an integer knob, mirroring the ``_BACKENDS`` check.

    ``None`` selects ``default``.  Booleans and non-integral values are
    rejected (``workers=0``/``chunk_size=-3`` used to be silently
    accepted downstream); the error states the allowed range.
    """
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ReproError(
            f"{name} must be an integer >= {minimum} (or None for the "
            f"default), got {value!r} of type {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ReproError(
            f"{name} must be >= {minimum}, got {value}; allowed range "
            f"is [{minimum}, ∞)")
    return value


def _run_chunk(analyzer, frequencies, on_failure, solver=None, labels=None,
               parent_span=None, export_obs=False, submitted_at=None,
               plan=None, attempt=0, chunk_start=0):
    """Worker body: sweep one chunk with a chunk-local report.

    Hands the chunk to the analyzer's ``_sweep_chunk`` — the engine's
    one chunk loop (:func:`repro.mft.engine.sweep_chunk`) with the
    analyzer's batch and per-point hooks for ``solver`` — together with
    the attribution request ``labels`` and the chunk offset
    ``chunk_start`` (flattened-axis analyzers recover cell identities
    from it).  Runs unbudgeted (the budget gates dispatch, not
    execution) and returns *unclipped* values — clipping is diagnosed
    once on the merged sweep so the finding counts match the serial
    path.

    Observability: the chunk runs inside an ``executor.chunk`` span
    attached under ``parent_span`` (the dispatcher's span — a worker
    process has an empty span stack of its own). With ``export_obs``
    (the process backend, where the worker records into a *private*
    pickled copy of the recorder) the spans and metrics recorded by
    this chunk — including the chunk-local cache-stats delta — are
    exported and returned as the fifth tuple element for the dispatcher
    to merge; on the serial backend it is ``None`` and the dispatcher
    folds one sweep-level delta instead.

    Fault injection: ``plan``/``attempt`` arm the worker's
    :class:`~repro.resilience.faults.FaultPlan` for the duration of the
    chunk (no-op when ``plan`` is ``None``), firing the
    ``executor.chunk`` seam on entry and the per-frequency seams inside
    the engine.
    """
    with activate(plan, attempt):
        fire("executor.chunk", chunk=int(chunk_start))
        rec = analyzer.recorder
        collect = export_obs and rec.enabled
        checkpoint = rec.checkpoint() if collect else None
        stats = analyzer.cache_stats
        stats_before = stats.snapshot() if collect else None
        if rec.enabled and submitted_at is not None:
            rec.observe("executor.queue_seconds",
                        max(0.0, time.perf_counter() - submitted_at))
        report = DiagnosticsReport(context="mft sweep chunk")
        with rec.span("executor.chunk", _parent=parent_span,
                      n=int(len(frequencies)), pid=os.getpid()):
            values, failures, attempts = analyzer._sweep_chunk(
                np.asarray(frequencies, dtype=float), on_failure, report,
                labels, solver, int(chunk_start))
        obs = None
        if collect:
            _fold_cache_delta(rec, stats_before, stats.snapshot())
            obs = rec.export_since(checkpoint)
        return values, failures, attempts, report.findings, obs


class _DispatchState:
    """Book-keeping shared by the serial and pooled dispatch loops.

    Tracks completed chunk outputs (seeded from a checkpoint on
    resume), chunks that exhausted their retries, chunks skipped by the
    budget gate, and the resilience counters/findings — and persists
    each completed chunk to the checkpoint store as it lands.
    """

    def __init__(self, chunks, recorder, report, retry, store):
        self.chunks = chunks
        self.recorder = recorder
        self.report = report
        self.retry = retry
        self.store = store
        self.outputs = {}
        self.chunk_errors = {}
        self.skipped = set()
        self.n_resumed = 0
        self.n_retries = 0
        self.n_worker_crashes = 0
        self.n_timeouts = 0

    def resume(self, completed):
        """Seed completed chunks loaded from the checkpoint store."""
        starts = {start: idx for idx, (start, _chunk)
                  in enumerate(self.chunks)}
        for start, output in completed.items():
            idx = starts.get(int(start))
            if idx is None:
                raise ReproError(
                    f"checkpoint chunk start {start} does not align "
                    "with the sweep chunking — the store key should "
                    "have caught this; delete the checkpoint directory")
            self.outputs[idx] = output
        self.n_resumed = len(self.outputs)
        if self.n_resumed:
            self.recorder.count("executor.chunks_resumed",
                                self.n_resumed)
            self.report.info(
                "checkpoint-resume",
                f"resumed {self.n_resumed} of {len(self.chunks)} chunks "
                f"from {self.store.path}",
                n_resumed=self.n_resumed, n_chunks=len(self.chunks),
                path=str(self.store.path))

    def todo(self):
        return [idx for idx in range(len(self.chunks))
                if idx not in self.outputs]

    def complete(self, idx, output):
        self.outputs[idx] = output
        if self.store is not None:
            values, failures, attempts, findings, _obs = output
            self.store.record(self.chunks[idx][0], values, failures,
                              attempts, findings)

    def note_retry(self, idx, next_attempt, stage, exc, delay):
        """Record one requeue of chunk ``idx`` (about to re-run)."""
        self.n_retries += 1
        self.recorder.count("executor.retries")
        if stage == "worker-crash":
            self.n_worker_crashes += 1
            self.recorder.count("executor.worker_crashes")
            code = "worker-crash"
        elif stage == "timeout":
            self.n_timeouts += 1
            self.recorder.count("executor.timeouts")
            code = "chunk-timeout"
        else:
            code = "chunk-retry"
        message = (f"chunk {idx} ({stage}): {type(exc).__name__}: {exc}"
                   f" — retrying (attempt {next_attempt} of "
                   f"{self.retry.max_retries}) after {delay:.3g} s")
        self.report.warning(code, message, chunk=idx,
                            attempt=next_attempt, stage=stage,
                            delay_seconds=delay,
                            error=type(exc).__name__)
        logger.warning("sweep %s", message)

    def fail_chunk(self, idx, stage, exc):
        """Chunk ``idx`` is out of retries: degrade to NaN + failures."""
        if stage == "worker-crash":
            self.n_worker_crashes += 1
            self.recorder.count("executor.worker_crashes")
        elif stage == "timeout":
            self.n_timeouts += 1
            self.recorder.count("executor.timeouts")
        self.recorder.count("executor.chunks_failed")
        message = (f"chunk {idx} failed after "
                   f"{self.retry.max_retries + 1} attempts: "
                   f"{type(exc).__name__}: {exc}")
        self.chunk_errors[idx] = (stage, type(exc).__name__, message)
        self.report.error("retry-exhausted", message, chunk=idx,
                          stage=stage, error=type(exc).__name__)
        logger.error("sweep %s", message)

    def skip(self, indices):
        self.skipped.update(int(idx) for idx in indices)


class SweepExecutor:
    """Run an MFT frequency sweep in chunks, optionally concurrently.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"process"``.
    max_workers:
        Worker count for the process backend (default: CPU count).
    chunk_size:
        Frequencies per dispatched chunk (default 8, or 64 for the
        spectral-batch solver where each chunk is one ω-block). Smaller
        chunks give the budget gate finer granularity; larger chunks
        amortise dispatch overhead.
    solver:
        ``None`` (default) sweeps each chunk through the per-frequency
        fallback chain; ``"spectral-batch"`` evaluates each chunk as
        one ω-block through :mod:`repro.mft.spectral`.
    retry:
        Chunk-retry policy: ``None``/``True`` for the default
        :class:`~repro.resilience.retry.RetryPolicy`, ``False`` to
        disable retries, or an explicit policy instance (backoff,
        jitter, per-chunk timeout).
    faults:
        A :class:`~repro.resilience.faults.FaultPlan` armed around
        every chunk for deterministic fault injection (tests, chaos
        runs).  ``None`` (the default) injects nothing and costs one
        integer check per seam.
    """

    def __init__(self, backend="serial", max_workers=None, chunk_size=None,
                 solver=None, retry=None, faults=None):
        if backend not in _BACKENDS:
            raise ReproError(
                f"unknown sweep backend {backend!r}; expected one of "
                f"{_BACKENDS}")
        if solver not in _SOLVERS:
            raise ReproError(
                f"unknown sweep solver {solver!r}; expected one of "
                f"{_SOLVERS}")
        self.backend = backend
        self.solver = None if solver == "mft" else solver
        solver = self.solver
        self.max_workers = _positive_int("max_workers", max_workers,
                                         _default_workers())
        default_chunk = (_DEFAULT_CHUNK if solver is None
                         else _DEFAULT_SPECTRAL_CHUNK)
        self.chunk_size = _positive_int("chunk_size", chunk_size,
                                        default_chunk)
        self.retry = resolve_retry(retry)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise ReproError(
                "faults must be a repro.resilience.FaultPlan (or None), "
                f"got {type(faults).__name__}")
        self.faults = faults

    # -- public API ----------------------------------------------------------

    def run(self, analyzer, frequencies, budget=None, on_failure="record",
            checkpoint=None, attribute_sources=False):
        """Sweep ``frequencies`` with ``analyzer``; returns a PsdResult.

        The one result path of every MFT sweep (:meth:`MftNoiseAnalyzer.psd`
        is ``psd_sweep(parallel=None)``): values, NaN masks, failure
        records, diagnostics severity counts are the same on every
        backend, and ``info["executor"]`` reports executor metadata.

        ``attribute_sources`` is resolved once to the attribution
        request — a tuple of budget-row labels, or ``None`` — which
        travels with every chunk; the result then carries the
        per-source :class:`~repro.metrics.ContributionBudget`.

        ``checkpoint`` is a directory path (or
        :class:`~repro.resilience.checkpoint.SweepCheckpoint`) to
        persist each completed chunk into; a re-run with the same store
        and an identical sweep (system fingerprint, grid, solver,
        chunking) resumes from the completed chunks bit-identically.
        """
        if on_failure not in ("record", "raise"):
            raise ReproError(
                f"on_failure must be 'record' or 'raise', "
                f"got {on_failure!r}")
        labels = analyzer._attribution_request(attribute_sources)
        width = 1 if labels is None else 1 + len(labels)
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        budget = as_budget(budget if budget is not None
                           else analyzer.budget)
        budget.start()
        report = DiagnosticsReport(context="mft sweep")
        report.merge(analyzer.preflight)
        rec = analyzer.recorder
        mark = rec.mark()
        cache_stats = analyzer.cache_stats
        stats_before = cache_stats.snapshot() if rec.enabled else None
        t0 = time.perf_counter()
        with rec.span("mft.sweep", backend=self.backend,
                      solver=self.solver or "mft",
                      n=int(freqs.size)):
            with rec.span("mft.warmup"):
                analyzer.warm_up(sources=labels is not None)
                if self.solver is not None:
                    # Materialise group eigenbases before dispatch so
                    # forked workers inherit them.
                    analyzer.context.spectral_bases
            chunks = [(start, freqs[start:start + self.chunk_size])
                      for start in range(0, freqs.size, self.chunk_size)]
            store = self._open_checkpoint(checkpoint, analyzer, freqs,
                                          on_failure)
            state = _DispatchState(chunks, rec, report, self.retry, store)
            if store is not None:
                state.resume(store.open(self._checkpoint_key(
                    analyzer, freqs, on_failure, width)))
            with rec.span("executor.dispatch",
                          n_chunks=len(chunks)) as dispatch_span:
                parent_span = (dispatch_span.span_id if rec.enabled
                               else None)
                if self.backend == "serial" or len(chunks) <= 1:
                    self._run_serial(analyzer, budget, on_failure, labels,
                                     state)
                else:
                    self._run_pooled(analyzer, budget, on_failure, labels,
                                     parent_span, state)
            with rec.span("executor.merge"):
                for idx in sorted(state.outputs):
                    output = state.outputs[idx]
                    if output[4] is not None:
                        rec.merge(output[4], parent_id=parent_span)
                values, failures, attempts = self._merge(
                    freqs, state, budget, report, width)
            raw_total, clipped, contribution = _finalize(
                analyzer, freqs, values, report, labels,
                self.solver or "mft")
        runtime = time.perf_counter() - t0
        if rec.enabled:
            rec.count("executor.chunks_dispatched",
                      len(state.outputs) - state.n_resumed)
            # One parent-side delta. On the serial backend it covers
            # the whole sweep; on the process backend the workers
            # mutate *private* context copies — their chunk-local
            # deltas arrived through the merged exports, and the parent
            # delta only adds the warm-up counts. Either way the totals
            # match the serial sweep exactly.
            _fold_cache_delta(rec, stats_before, cache_stats.snapshot())
            report.timeline = span_summary(rec, since=mark)
        return PsdResult(
            frequencies=freqs, psd=clipped, method="mft",
            output=analyzer._output_name(),
            info={
                "runtime_seconds": runtime,
                "solver": self.solver or "mft",
                "segments": analyzer.context.structure.durations.size,
                "negative_clipped": int(np.sum(
                    np.isfinite(raw_total) & (raw_total < 0.0))),
                "worst_negative_psd": worst_negative_psd(raw_total),
                "diagnostics": report,
                "failures": failures,
                "fallback_attempts": attempts,
                "budget": contribution,
                "cache_stats": cache_stats.to_dict(),
                "executor": {
                    "backend": self.backend,
                    "solver": self.solver,
                    "max_workers": self.max_workers,
                    "chunk_size": self.chunk_size,
                    "n_chunks": len(chunks),
                    "n_chunks_skipped": len(state.skipped),
                    "n_chunks_failed": len(state.chunk_errors),
                    "n_chunks_resumed": state.n_resumed,
                    "n_retries": state.n_retries,
                    "n_worker_crashes": state.n_worker_crashes,
                    "n_timeouts": state.n_timeouts,
                    "max_retries": self.retry.max_retries,
                    "chunk_timeout_seconds":
                        self.retry.chunk_timeout_seconds,
                    "checkpoint": (str(store.path)
                                   if store is not None else None),
                },
            })

    # -- checkpointing -------------------------------------------------------

    def _open_checkpoint(self, checkpoint, analyzer, freqs, on_failure):
        if checkpoint is None:
            return None
        if isinstance(checkpoint, SweepCheckpoint):
            return checkpoint
        return SweepCheckpoint(checkpoint)

    def _checkpoint_key(self, analyzer, freqs, on_failure, width):
        """Identity of one sweep for checkpoint compatibility.

        Content fingerprint of the discretized system plus grid bytes,
        output row, resolved solver, chunking, failure mode, and value
        width (``1 + n_sources`` when attributing) — any mismatch means
        stored chunks cannot be spliced into this sweep.
        """
        from .context import discretization_fingerprint
        grid = hashlib.sha256(
            np.ascontiguousarray(freqs, dtype=float).tobytes())
        # ``family`` is the parameter-family hash of a corner-sweep
        # analyzer (None for plain sweeps): a corner sweep's checkpoint
        # can then never be resumed into a plain sweep of a system that
        # fingerprints identically, and vice versa.
        return {
            "fingerprint": discretization_fingerprint(
                analyzer.system, analyzer.segments_per_phase),
            "output_row": int(analyzer.output_row),
            "grid_sha256": grid.hexdigest(),
            "n_points": int(freqs.size),
            "solver": self.solver or "mft",
            "chunk_size": int(self.chunk_size),
            "on_failure": str(on_failure),
            "value_width": int(width),
            "family": getattr(analyzer, "family_hash", None),
        }

    # -- backends ------------------------------------------------------------

    def _fire_dispatch(self, start):
        """Dispatcher-side seam (``kind="kill"`` aborts the sweep).

        Keyed by chunk *start* index, matching the worker-side
        ``executor.chunk`` seam, so one ``match={"chunk": s}`` targets
        the same chunk at either site.
        """
        if self.faults is not None:
            self.faults.fire("executor.dispatch", 0, chunk=int(start))

    def _run_serial(self, analyzer, budget, on_failure, labels, state):
        """In-process chunk loop; the reference dispatch semantics.

        Retries re-run the chunk inline; per-chunk timeouts are not
        enforceable without preemption and are ignored here.
        """
        for idx in state.todo():
            if budget.exceeded() is not None:
                state.skip(i for i in state.todo()
                           if i not in state.chunk_errors)
                return
            start, chunk = state.chunks[idx]
            self._fire_dispatch(start)
            attempt = 0
            while True:
                try:
                    output = _run_chunk(
                        analyzer, chunk, on_failure, self.solver, labels,
                        plan=self.faults, attempt=attempt,
                        chunk_start=start)
                except ReproError:
                    # Numerical failures (on_failure="raise", structural
                    # errors) keep their existing contract: no retry.
                    raise
                except Exception as exc:  # scn: ignore[SCN002]
                    # Resilience boundary: any non-ReproError escaping
                    # the worker body is an operational fault.
                    stage = ("worker-crash"
                             if isinstance(exc, InjectedWorkerCrash)
                             else "retry-exhausted")
                    if attempt >= self.retry.max_retries:
                        state.fail_chunk(idx, stage, exc)
                        break
                    attempt += 1
                    delay = self.retry.delay(attempt, chunk=idx)
                    state.note_retry(idx, attempt, stage, exc, delay)
                    if delay > 0.0:
                        time.sleep(delay)
                else:
                    state.complete(idx, output)
                    break

    def _make_pool(self):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        return cf.ProcessPoolExecutor(max_workers=self.max_workers,
                                      mp_context=ctx)

    def _respawn_pool(self, pool):
        """Replace a broken pool with a fresh one."""
        pool.shutdown(wait=False, cancel_futures=True)
        return self._make_pool()

    def _handle_failure(self, state, queue, idx, attempt, stage, exc):
        """Requeue a failed chunk with backoff, or declare it exhausted."""
        if attempt >= self.retry.max_retries:
            state.fail_chunk(idx, stage, exc)
            return
        next_attempt = attempt + 1
        delay = self.retry.delay(next_attempt, chunk=idx)
        state.note_retry(idx, next_attempt, stage, exc, delay)
        queue.append((idx, next_attempt, time.perf_counter() + delay))

    def _wait_timeout(self, pending, queue):
        """Seconds until the next deadline or backoff expiry (or None)."""
        now = time.perf_counter()
        horizon = None
        for _idx, _attempt, deadline in pending.values():
            if deadline is not None:
                horizon = (deadline if horizon is None
                           else min(horizon, deadline))
        for _idx, _attempt, not_before in queue:
            if not_before > now:
                horizon = (not_before if horizon is None
                           else min(horizon, not_before))
        if horizon is None:
            return None
        return max(0.0, horizon - now)

    def _run_pooled(self, analyzer, budget, on_failure, labels, parent_span,
                    state):
        """Bounded-in-flight dispatch with budget gate, retry, timeout.

        At most ``max_workers`` chunks are in flight; before dispatching
        more work the budget is checked, and on exhaustion the chunks
        not yet submitted (including requeued retries) are *not*
        dispatched while everything already submitted runs to
        completion.  A broken process pool is respawned and every
        in-flight chunk requeued with its attempt count bumped; a chunk
        past its per-chunk timeout is abandoned (its late result is
        discarded) and requeued.
        """
        retry = self.retry
        queue = collections.deque(
            (idx, 0, 0.0) for idx in state.todo())
        pending = {}
        pool = self._make_pool()
        try:
            while queue or pending:
                if queue and budget.exceeded() is not None:
                    state.skip(idx for idx, _a, _t in queue)
                    queue.clear()
                now = time.perf_counter()
                deferred = []
                while queue and len(pending) < self.max_workers:
                    idx, attempt, not_before = queue.popleft()
                    if not_before > now:
                        deferred.append((idx, attempt, not_before))
                        continue
                    self._fire_dispatch(state.chunks[idx][0])
                    deadline = (now + retry.chunk_timeout_seconds
                                if retry.chunk_timeout_seconds is not None
                                else None)
                    future = pool.submit(
                        _run_chunk, analyzer, state.chunks[idx][1],
                        on_failure, self.solver, labels, parent_span,
                        export_obs=True, submitted_at=time.perf_counter(),
                        plan=self.faults, attempt=attempt,
                        chunk_start=state.chunks[idx][0])
                    pending[future] = (idx, attempt, deadline)
                queue.extend(deferred)
                if not pending:
                    if not queue:
                        break
                    # Every runnable chunk is waiting out its backoff.
                    time.sleep(self._wait_timeout(pending, queue) or 0.0)
                    continue
                done, _ = cf.wait(pending,
                                  timeout=self._wait_timeout(pending,
                                                             queue),
                                  return_when=cf.FIRST_COMPLETED)
                broken = False
                for future in done:
                    idx, attempt, _deadline = pending.pop(future)
                    try:
                        output = future.result()
                    except ReproError:
                        raise
                    except cf.BrokenExecutor as exc:
                        broken = True
                        self._handle_failure(state, queue, idx, attempt,
                                             "worker-crash", exc)
                    except Exception as exc:  # scn: ignore[SCN002]
                        # Resilience boundary (see _run_serial).
                        self._handle_failure(state, queue, idx, attempt,
                                             "retry-exhausted", exc)
                    else:
                        state.complete(idx, output)
                now = time.perf_counter()
                expired = [future for future, (_i, _a, deadline)
                           in pending.items()
                           if deadline is not None and now >= deadline]
                for future in expired:
                    idx, attempt, _deadline = pending.pop(future)
                    future.cancel()
                    exc = TimeoutError(
                        f"chunk exceeded its "
                        f"{retry.chunk_timeout_seconds:.3g} s timeout")
                    self._handle_failure(state, queue, idx, attempt,
                                         "timeout", exc)
                if broken:
                    # The pool is dead: every still-pending future will
                    # fail with the same BrokenExecutor. Requeue them
                    # all against a fresh pool.
                    for future, (idx, attempt, _d) in list(
                            pending.items()):
                        self._handle_failure(
                            state, queue, idx, attempt, "worker-crash",
                            cf.BrokenExecutor(
                                "sibling of a crashed worker"))
                    pending.clear()
                    pool = self._respawn_pool(pool)
        finally:
            # Abandon not-yet-started chunks when a worker raised
            # (on_failure="raise") or the sweep was killed; no-op on
            # the clean path where ``pending`` is already empty.
            for future in pending:
                future.cancel()
            pool.shutdown(wait=True)

    # -- merging -------------------------------------------------------------

    @staticmethod
    def _merge(freqs, state, budget, report, width):
        """Stitch chunk outputs back into one sweep, in index order.

        In attribution mode (``width > 1``) the merge buffer is
        ``(n_freq, width)`` and a chunk that failed or was skipped
        leaves its whole rows NaN — total and budget columns together.
        """
        values = np.full(freqs.shape if width == 1
                         else (freqs.size, width), np.nan)
        failures = []
        attempts = []
        for idx, (start, chunk) in enumerate(state.chunks):
            output = state.outputs.get(idx)
            if output is not None:
                (chunk_values, chunk_failures, chunk_attempts,
                 findings, _obs) = output
                values[start:start + chunk.size] = chunk_values
                for failure in chunk_failures:
                    failures.append(dataclasses.replace(
                        failure, index=failure.index + start))
                attempts.extend(chunk_attempts)
                report.merge(findings)
            elif idx in state.chunk_errors:
                stage, error, message = state.chunk_errors[idx]
                for k in range(start, start + chunk.size):
                    failures.append(FrequencyFailure(
                        frequency=float(freqs[k]), index=k, stage=stage,
                        error=error, message=message))
        if state.skipped:
            reason = budget.exceeded() or "budget exhausted"
            n_skipped = 0
            for idx in sorted(state.skipped):
                start, chunk = state.chunks[idx]
                n_skipped += chunk.size
                for k in range(start, start + chunk.size):
                    failures.append(FrequencyFailure(
                        frequency=float(freqs[k]), index=k,
                        stage="budget", error="BudgetExceededError",
                        message=reason))
            report.error(
                "budget-exhausted",
                f"sweep budget spent before {n_skipped} of "
                f"{freqs.size} frequencies: {reason}",
                skipped=n_skipped, reason=reason)
            logger.warning(
                "sweep budget spent: %d chunks not dispatched "
                "(%d frequencies)", len(state.skipped), n_skipped)
        failures.sort(key=lambda failure: failure.index)
        return values, failures, attempts


def _finalize(analyzer, freqs, values, report, labels, solver):
    """Clip the total PSD and split off the attribution budget.

    ``values`` is the merged sweep output: 1-D without attribution,
    ``(n_freq, 1 + len(labels))`` with it (column 0 the total, columns
    1… the per-source rows).  Returns ``(raw_total, clipped_total,
    budget_or_none)``; the budget rows are deliberately **unclipped**
    so they sum to the unclipped total exactly, and a frequency that is
    NaN in the total is NaN in every budget row (whole rows fail
    together — the NaN-union contract).
    """
    rec = analyzer.recorder
    if labels is None:
        with rec.span("mft.clip"):
            clipped = clip_negative_psd(freqs, values, report,
                                        logger=logger)
        return values, clipped, None
    raw_total = np.ascontiguousarray(values[:, 0])
    contributions = np.ascontiguousarray(values[:, 1:].T)
    with rec.span("mft.clip"):
        clipped = clip_negative_psd(freqs, raw_total, report,
                                    logger=logger)
    with rec.span("attribution.budget", n_sources=len(labels)):
        from ..metrics import ContributionBudget
        contribution = ContributionBudget(
            frequencies=freqs, labels=list(labels),
            contributions=contributions, total=raw_total,
            output=analyzer._output_name(), method="mft",
            solver=solver)
    rec.count("attribution.sources", len(labels))
    rec.count("attribution.sweeps")
    return raw_total, clipped, contribution
