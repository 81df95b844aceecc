"""Noise-analysis as a service: job queue and result store.

The pieces (DESIGN.md §13):

* :class:`JobSpec` / :func:`job_key` — what to run, and its content
  address (family-salted discretization fingerprint + grid hash);
* :class:`JobQueue` — ``submit(spec) -> JobHandle`` with
  ``poll``/``wait``/``cancel``, streaming per-chunk progress through
  the job's :class:`~repro.obs.Recorder`, and a batch endpoint
  (``run_batch``) for N circuits × M frequency grids in one call;
* :class:`SqliteResultStore` — content-addressed payloads
  (:mod:`repro.results`) in one stdlib :mod:`sqlite3` table, in memory
  or in a file that survives restarts, with hit/miss/evict telemetry,
  so an identical resubmit is served without a single kernel solve.

Each job's sweep runs through the one sweep loop
(:func:`~repro.mft.executor.run_sweep`), in the queue's dispatcher
thread, so budgets and the partial-failure contract work unchanged
underneath.

Quickstart::

    from repro.service import JobQueue, JobSpec

    with JobQueue(store="results.db") as queue:
        handle = queue.submit(JobSpec(model, frequencies))
        result = queue.wait(handle)          # computed
        again = queue.submit(JobSpec(model, frequencies))
        again.wait().served_from_store       # True — zero solves
"""

from .jobs import JobHandle, JobResult, JobStatus
from .queue import JobQueue
from .spec import JobSpec, job_key
from .store import SqliteResultStore

__all__ = [
    "JobHandle",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "SqliteResultStore",
    "job_key",
]
