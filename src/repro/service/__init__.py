"""Noise-analysis as a service: job queue, result store, worker pool.

The pieces (DESIGN.md §13):

* :class:`JobSpec` / :func:`job_key` — what to run, and its content
  address (family-salted discretization fingerprint + grid hash);
* :class:`JobQueue` — ``submit(spec) -> JobHandle`` with
  ``poll``/``wait``/``cancel``, streaming per-chunk progress through
  the job's :class:`~repro.obs.Recorder`, and a batch endpoint
  (``run_batch``) for N circuits × M frequency grids in one call;
* :class:`ResultStore` (:class:`MemoryResultStore`,
  :class:`DirectoryResultStore`, :class:`SqliteResultStore`) —
  persistent content-addressed payloads
  (:mod:`repro.results`) with hit/miss/evict telemetry, so an
  identical resubmit is served without a single kernel solve;
* :class:`WorkerPool` — one long-lived process pool shared by
  every job's :class:`~repro.mft.executor.SweepExecutor`, keeping the
  retry/fault/budget/checkpoint machinery unchanged underneath.

Quickstart::

    from repro.service import JobQueue, JobSpec

    with JobQueue(store="results.db", backend="process",
                  max_workers=2) as queue:
        handle = queue.submit(JobSpec(model, frequencies))
        result = queue.wait(handle)          # computed
        again = queue.submit(JobSpec(model, frequencies))
        again.wait().served_from_store       # True — zero solves
"""

from .jobs import JobHandle, JobResult, JobStatus
from .pool import WorkerPool
from .queue import JobQueue
from .spec import JobSpec, job_key
from .store import (
    DirectoryResultStore,
    MemoryResultStore,
    ResultStore,
    SqliteResultStore,
    open_store,
)

__all__ = [
    "DirectoryResultStore",
    "JobHandle",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "MemoryResultStore",
    "ResultStore",
    "SqliteResultStore",
    "WorkerPool",
    "job_key",
    "open_store",
]
