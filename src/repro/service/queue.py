"""The noise-analysis job queue.

:class:`JobQueue` accepts :class:`~repro.service.spec.JobSpec`\\ s and
runs them FIFO on a background dispatcher thread; each job's sweep is
itself sharded across frequency chunks by the existing
:class:`~repro.mft.executor.SweepExecutor` riding the queue's shared
:class:`~repro.service.pool.WorkerPool` — so retries, fault plans,
budgets, and checkpoint/resume compose unchanged underneath the
service API.

Content addressing: the spec's :func:`~repro.service.spec.job_key` is
looked up in the :class:`~repro.service.store.ResultStore` twice — at
submit time, and again when the job reaches the front of the queue
(so a duplicate submitted while its twin was still in flight is also
served, FIFO order guaranteeing the twin finished first).  A hit
resolves the job (``served_from_store=True``) without a single kernel
solve — provable from the job recorder, which then contains no
``mft.sweep`` span.  Only clean results (no per-frequency failures)
are stored, so a budget- or fault-degraded partial result can never
be served as the real thing.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time
from typing import Any

from ..errors import ReproError
from ..obs import Recorder, span_summary
from .jobs import JobHandle, JobResult, JobStatus
from .pool import WorkerPool
from .spec import JobSpec, job_key
from .store import ResultStore, open_store

_QUEUE_BACKENDS = ("serial", "process")


class JobQueue:
    """Submit/poll/wait/cancel front-end over a worker pool and store.

    Parameters
    ----------
    store:
        A :class:`~repro.service.store.ResultStore`, a path (directory
        or ``.db``/``.sqlite`` file), or ``None`` for a fresh in-memory
        store.
    pool:
        A shared :class:`~repro.service.pool.WorkerPool`; sweeps then
        run on its worker processes.  The queue never shuts down a
        pool it was given (construct-your-own lifetime); a pool the
        queue built itself (from ``backend=``/``max_workers=``) is torn
        down by :meth:`close`.
    backend:
        Used only when ``pool`` is ``None``: ``"serial"`` (default —
        in-process sweeps) or ``"process"`` (the queue then owns a
        :class:`WorkerPool` of ``max_workers``).
    """

    def __init__(self, store: Any = None, pool: "WorkerPool | None" = None,
                 backend: "str | None" = None,
                 max_workers: "int | None" = None,
                 store_limit: "int | None" = None) -> None:
        if pool is not None and backend is not None \
                and backend != pool.backend:
            raise ReproError(
                f"backend={backend!r} conflicts with the shared pool's "
                f"backend {pool.backend!r}; pass one or the other")
        self.store: ResultStore = open_store(store, limit=store_limit)
        self._own_pool = False
        if pool is None:
            backend = backend or "serial"
            if backend not in _QUEUE_BACKENDS:
                raise ReproError(
                    f"unknown queue backend {backend!r}; expected one "
                    f"of {_QUEUE_BACKENDS}")
            if backend != "serial":
                pool = WorkerPool(max_workers=max_workers)
                self._own_pool = True
        self.pool = pool
        self.backend = "serial" if pool is None else pool.backend
        self._ids = itertools.count(1)
        self._cond = threading.Condition()
        self._todo: "collections.deque[JobHandle]" = collections.deque()
        self._handles: "dict[str, JobHandle]" = {}
        self._marks: "dict[str, int]" = {}
        self._closed = False
        self._worker: "threading.Thread | None" = None
        self.counters = {"submitted": 0, "served_from_store": 0,
                         "computed": 0, "failed": 0, "cancelled": 0,
                         "stored": 0}

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec,
               recorder: "Recorder | None" = None) -> JobHandle:
        """Queue one job; returns its handle immediately.

        An identical job already in the result store resolves on the
        spot: the handle comes back ``DONE`` with
        ``result.served_from_store=True`` and its ``recorder`` (fresh
        unless one was passed) untouched by any solve.
        """
        if not isinstance(spec, JobSpec):
            raise ReproError(
                f"submit takes a JobSpec, got {type(spec).__name__}")
        with self._cond:
            if self._closed:
                raise ReproError("JobQueue is closed")
        rec = recorder if recorder is not None else Recorder()
        key = job_key(spec)
        handle = JobHandle(id=f"job-{next(self._ids):04d}", spec=spec,
                           key=key, recorder=rec)
        self._handles[handle.id] = handle
        self._marks[handle.id] = rec.mark()
        self.counters["submitted"] += 1
        stored = self.store.get(key)
        if stored is not None:
            self.counters["served_from_store"] += 1
            handle._finish(JobStatus.DONE, JobResult(
                job_id=handle.id, key=key, served_from_store=True,
                runtime_seconds=0.0, result=stored))
            return handle
        with self._cond:
            self._todo.append(handle)
            self._ensure_worker()
            self._cond.notify()
        return handle

    def submit_batch(self, specs: "list[JobSpec]") -> "list[JobHandle]":
        """Submit N jobs in one call; returns their handles in order."""
        return [self.submit(spec) for spec in specs]

    def run_batch(self, specs: "list[JobSpec]",
                  timeout: "float | None" = None) -> "list[JobResult]":
        """The batch endpoint: submit N jobs and wait for all of them.

        Results come back in submission order — element ``i`` is
        bit-identical (values, NaN masks, failure records) to running
        ``specs[i]`` as one independent sweep.
        """
        handles = self.submit_batch(specs)
        return [handle.wait(timeout) for handle in handles]

    # -- lifecycle queries ---------------------------------------------------

    def poll(self, handle: JobHandle) -> JobStatus:
        """The job's current status (non-blocking)."""
        return handle.status

    def wait(self, handle: JobHandle,
             timeout: "float | None" = None) -> JobResult:
        """Block until the job finishes; see :meth:`JobHandle.wait`."""
        return handle.wait(timeout)

    def cancel(self, handle: JobHandle) -> bool:
        """Cancel a still-pending job; returns whether it worked.

        A running job is never killed (the executor's in-flight-work
        contract); ``False`` means the job already started or finished.
        """
        with self._cond:
            try:
                self._todo.remove(handle)
            except ValueError:
                return False
        self.counters["cancelled"] += 1
        handle._finish(JobStatus.CANCELLED)
        return True

    def progress(self, handle: JobHandle) -> "dict[str, Any]":
        """Live per-chunk progress from the job's recorder.

        Chunks report as their ``executor.chunk`` spans close (on the
        serial backend during the sweep; on the process backend the
        workers' spans merge when the sweep's chunks are merged).
        """
        rec = handle.recorder
        since = self._marks.get(handle.id, 0)
        spans = rec.spans[since:] if rec.enabled else []
        chunks_done = sum(1 for span in spans
                          if span.name == "executor.chunk"
                          and span.closed)
        return {
            "job_id": handle.id,
            "status": str(handle.status),
            "chunks_done": chunks_done,
            "stages": span_summary(rec, since=since),
        }

    # -- telemetry -----------------------------------------------------------

    def telemetry(self) -> "dict[str, Any]":
        """Queue, store, and pool counters in one JSON-ready dict."""
        return {
            "backend": self.backend,
            "jobs": dict(self.counters),
            "n_pending": len(self._todo),
            "store": self.store.telemetry(),
            "pool": (None if self.pool is None
                     else self.pool.telemetry()),
        }

    # -- dispatcher ----------------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._drain, name="repro-job-queue", daemon=True)
            self._worker.start()

    def _drain(self) -> None:
        while True:
            with self._cond:
                while not self._todo and not self._closed:
                    self._cond.wait()
                if self._closed and not self._todo:
                    return
                handle = self._todo.popleft()
            # Re-check the store at dequeue time: a duplicate that was
            # submitted while its twin was still pending hits here,
            # since FIFO order guarantees the twin already finished.
            stored = self.store.get(handle.key)
            if stored is not None:
                self.counters["served_from_store"] += 1
                handle._finish(JobStatus.DONE, JobResult(
                    job_id=handle.id, key=handle.key,
                    served_from_store=True, runtime_seconds=0.0,
                    result=stored))
                continue
            handle.status = JobStatus.RUNNING
            try:
                result = self._execute(handle)
            except Exception as exc:  # scn: ignore[SCN002]
                # Service boundary: a failed job must report through
                # its handle, never kill the dispatcher thread.
                self.counters["failed"] += 1
                handle._finish(JobStatus.FAILED,
                               error=f"{type(exc).__name__}: {exc}")
            else:
                self.counters["computed"] += 1
                handle._finish(JobStatus.DONE, result)

    def _execute(self, handle: JobHandle) -> JobResult:
        from ..analysis.api import NoiseAnalysis

        spec = handle.spec
        t0 = time.perf_counter()
        analysis = NoiseAnalysis(
            spec.model_or_system,
            segments_per_phase=spec.segments_per_phase,
            output_row=spec.output_row, recorder=handle.recorder,
            budget=None, **spec.analysis_options)
        result = analysis.psd_sweep(
            spec.frequencies,
            parallel=None if self.backend == "serial" else self.backend,
            max_workers=(None if self.pool is None
                         else self.pool.max_workers),
            chunk_size=spec.chunk_size, budget=spec.budget,
            on_failure=spec.on_failure, solver=spec.solver,
            attribute_sources=spec.attribute_sources, retry=spec.retry,
            faults=spec.faults, checkpoint=spec.checkpoint,
            pool=self.pool)
        runtime = time.perf_counter() - t0
        if getattr(result, "n_failed", 1) == 0:
            self.store.put(handle.key, result)
            self.counters["stored"] += 1
        return JobResult(job_id=handle.id, key=handle.key,
                         served_from_store=False,
                         runtime_seconds=runtime, result=result)

    # -- teardown ------------------------------------------------------------

    def close(self, timeout: "float | None" = 30.0) -> None:
        """Drain remaining jobs, stop the dispatcher, drop owned pools."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join(timeout)
        if self._own_pool and self.pool is not None:
            self.pool.shutdown()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"JobQueue(backend={self.backend!r}, "
                f"{self.counters['submitted']} submitted, "
                f"{len(self._todo)} pending)")
