"""A persistent worker pool shared across sweep jobs.

:class:`WorkerPool` owns one ``concurrent.futures`` executor for the
lifetime of a service (not one per sweep): injected into
:class:`~repro.mft.executor.SweepExecutor` via its ``pool=`` seam,
successive jobs reuse warm worker processes, which is where the
service's throughput win over a per-sweep pool comes from.  The
executor calls :meth:`acquire` at dispatch and :meth:`respawn` when a
worker crash breaks the pool; it never shuts a shared pool down —
lifetime belongs to whoever constructed the :class:`WorkerPool`
(use it as a context manager or call :meth:`shutdown`).
"""

from __future__ import annotations

import concurrent.futures as cf
import multiprocessing
import threading
from typing import Any

from ..errors import ReproError


class WorkerPool:
    """Long-lived process pool with crash respawn.

    Workers come from the fork context when available, so they inherit
    warmed caches.  ``backend`` is always ``"process"``.

    Parameters
    ----------
    max_workers:
        Worker count (default 2 — the service smoke configuration).
    """

    backend = "process"

    def __init__(self, max_workers: int = 2) -> None:
        self.max_workers = int(max_workers)
        if self.max_workers < 1:
            raise ReproError(
                f"max_workers must be >= 1, got {max_workers}")
        self._lock = threading.Lock()
        self._executor: "cf.Executor | None" = None
        self.n_respawns = 0
        self._closed = False

    def _spawn(self) -> cf.Executor:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        return cf.ProcessPoolExecutor(max_workers=self.max_workers,
                                      mp_context=ctx)

    # -- the SweepExecutor pool-provider protocol ---------------------------

    def acquire(self) -> cf.Executor:
        """The live executor, created on first use."""
        with self._lock:
            if self._closed:
                raise ReproError("WorkerPool is shut down")
            if self._executor is None:
                self._executor = self._spawn()
            return self._executor

    def respawn(self) -> cf.Executor:
        """Replace a broken executor with a fresh one."""
        with self._lock:
            if self._closed:
                raise ReproError("WorkerPool is shut down")
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = self._spawn()
            self.n_respawns += 1
            return self._executor

    # -- lifetime -----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Tear the executor down; the pool cannot be reused after."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def telemetry(self) -> "dict[str, Any]":
        return {"backend": self.backend,
                "max_workers": self.max_workers,
                "n_respawns": self.n_respawns,
                "live": self._executor is not None,
                "closed": self._closed}

    def __repr__(self) -> str:
        return (f"WorkerPool({self.backend}, "
                f"max_workers={self.max_workers}, "
                f"respawns={self.n_respawns})")
