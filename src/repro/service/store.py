"""The content-addressed result store.

:class:`SqliteResultStore` maps a :func:`~repro.service.spec.job_key`
to one serialized result payload (:func:`repro.results.to_payload`) in
a stdlib :mod:`sqlite3` table: ``":memory:"`` for a store that lives
as long as its queue, a file path for one that survives restarts.

The store counts hits, misses, and evictions on a
:class:`~repro.mft.context.CacheStats` — the same telemetry shape as the
opt-in context registry's ``registry_stats`` — so service dashboards
read one counter schema for every cache layer.
"""

from __future__ import annotations

import json
import pathlib
import sqlite3
import threading
from typing import Any

from ..errors import ReproError
from ..mft.context import CacheStats
from ..mft.executor import _positive_int
from ..results import from_payload, to_payload


class SqliteResultStore:
    """Key → result-payload table with hit/miss/evict telemetry.

    ``path`` is ``":memory:"`` or a sqlite file (created with its
    parent directories).  Insertion order is the autoincrement rowid; a
    re-``put`` deletes and re-inserts, refreshing recency, so the
    optional ``limit`` (an integer >= 1, never coerced) evicts the
    oldest entries first.  One connection, serialized by a lock, is
    shared across the queue's dispatcher thread and its callers.
    """

    def __init__(self, path: Any, limit: "int | None" = None) -> None:
        self.limit: "int | None" = _positive_int("limit", limit, None)
        #: Hit/miss/evict counters under the ``"result"`` category.
        self.stats = CacheStats()
        self.path = pathlib.Path(path)
        if str(path) != ":memory:":
            if self.path.is_dir():
                raise ReproError(
                    f"result store path {str(self.path)!r} is a "
                    "directory; a store is one sqlite file (or "
                    "':memory:')")
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "  seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  key TEXT UNIQUE NOT NULL,"
                "  payload TEXT NOT NULL)")
            self._conn.commit()

    def get(self, key: str) -> Any:
        """The stored result for ``key`` (a fresh object), or ``None``.

        Counts one ``result`` hit or miss on :attr:`stats`.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?",
                (str(key),)).fetchone()
        if row is None:
            self.stats.miss("result")
            return None
        self.stats.hit("result")
        return from_payload(json.loads(row[0]))

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` (overwrites; may evict)."""
        key, blob = str(key), json.dumps(to_payload(result))
        with self._lock:
            self._conn.execute("DELETE FROM results WHERE key = ?",
                               (key,))
            self._conn.execute(
                "INSERT INTO results (key, payload) VALUES (?, ?)",
                (key, blob))
            evicted = 0
            if self.limit is not None:
                evicted = self._conn.execute(
                    "DELETE FROM results WHERE seq NOT IN (SELECT seq "
                    "FROM results ORDER BY seq DESC LIMIT ?)",
                    (self.limit,)).rowcount
            self._conn.commit()
        for _ in range(evicted):
            self.stats.evict("result")

    def keys(self) -> "list[str]":
        """Stored keys, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM results ORDER BY seq").fetchall()
        return [str(row[0]) for row in rows]

    def clear(self) -> None:
        """Drop every entry (telemetry counters are kept)."""
        with self._lock:
            self._conn.execute("DELETE FROM results")
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?",
                (str(key),)).fetchone()
        return row is not None

    def telemetry(self) -> "dict[str, Any]":
        """JSON-ready snapshot: counters plus size and bound."""
        out = dict(self.stats.to_dict())
        out["size"] = len(self)
        out["limit"] = self.limit
        out["backend"] = type(self).__name__
        return out

    def close(self) -> None:
        """Close the connection (idempotent)."""
        with self._lock:
            self._conn.close()
