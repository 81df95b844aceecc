"""Job lifecycle objects: status, handle, and the exported result."""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any

from ..errors import ReproError
from .spec import JobSpec


class JobStatus(enum.Enum):
    """Lifecycle of one submitted job.

    ``PENDING -> RUNNING -> DONE | FAILED``; ``PENDING -> CANCELLED``
    via :meth:`~repro.service.queue.JobQueue.cancel`.  A store hit
    jumps straight to ``DONE`` at submit time.
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:
        return self.value


@dataclass
class JobResult:
    """One finished job: provenance plus the underlying result.

    ``result`` is the engine's own object (:class:`~repro.noise.result
    .PsdResult` — with failures, diagnostics, and attribution budget
    intact); the job wrapper adds the content address, whether the
    store served it, and the wall-clock runtime.  It speaks the
    :class:`repro.results.Exportable` protocol by delegation, so
    ``handle.wait().to_table()`` works no matter which result type the
    job produced.
    """

    job_id: str
    key: str
    served_from_store: bool
    runtime_seconds: float
    result: Any

    def to_table(self, **options: Any) -> str:
        provenance = ("store hit" if self.served_from_store
                      else f"computed in {self.runtime_seconds:.3g} s")
        return (f"job {self.job_id} [{provenance}]\n"
                + self.result.to_table(**options))

    def to_json(self) -> "dict[str, Any]":
        from ..results import to_payload
        return {
            "job_id": self.job_id,
            "key": self.key,
            "served_from_store": bool(self.served_from_store),
            "runtime_seconds": float(self.runtime_seconds),
            "result": to_payload(self.result),
        }

    def to_csv(self, path: Any) -> Any:
        return self.result.to_csv(path)


@dataclass
class JobHandle:
    """Caller-side view of one submitted job.

    ``recorder`` is the job's :class:`~repro.obs.Recorder`: per-chunk
    spans and executor counters stream into it while the job runs, so
    :meth:`repro.service.queue.JobQueue.progress` (or direct reads)
    observe live progress; ``mark`` is the recorder position at submit,
    where the job's own spans start.  ``wait`` blocks on the terminal
    event and re-raises job failures as :class:`~repro.errors.ReproError`.
    """

    id: str
    spec: JobSpec
    key: str
    recorder: Any
    mark: int = 0
    status: JobStatus = JobStatus.PENDING
    result: "JobResult | None" = None
    error: "str | None" = None
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: "float | None" = None) -> JobResult:
        """Block until terminal; returns the result or raises.

        Raises :class:`~repro.errors.ReproError` on job failure,
        cancellation, or timeout.
        """
        if not self._done.wait(timeout):
            raise ReproError(
                f"job {self.id} did not finish within {timeout} s "
                f"(status {self.status})")
        if self.status is JobStatus.CANCELLED:
            raise ReproError(f"job {self.id} was cancelled")
        if self.status is JobStatus.FAILED:
            raise ReproError(
                f"job {self.id} failed: {self.error}")
        assert self.result is not None
        return self.result

    def _finish(self, status: JobStatus,
                result: "JobResult | None" = None,
                error: "str | None" = None) -> None:
        self.status = status
        self.result = result
        self.error = error
        self._done.set()

    def __repr__(self) -> str:
        return (f"JobHandle({self.id}, {self.status}, "
                f"key={self.key[:12]}...)")
