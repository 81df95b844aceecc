"""Content-addressed, persistent result stores.

A :class:`ResultStore` maps a :func:`~repro.service.spec.job_key` to
one serialized result payload (:func:`repro.results.to_payload`).
Three backends share the interface:

* :class:`MemoryResultStore` — in-process dict, optional LRU bound;
* :class:`DirectoryResultStore` — one JSON file per key with atomic
  ``os.replace`` writes and an insertion-order index for eviction;
* :class:`SqliteResultStore` — a single stdlib :mod:`sqlite3` file.

Every store counts hits, misses, and evictions on a
:class:`~repro.mft.context.CacheStats` — the same telemetry shape as
the sweep-context registry (``registry_stats``), so service dashboards
read one counter schema for both cache layers.
"""

from __future__ import annotations

import abc
import collections
import json
import os
import pathlib
import sqlite3
import threading
from typing import Any

from ..errors import ReproError
from ..mft.context import CacheStats
from ..mft.executor import _positive_int
from ..results import from_payload, to_payload


class ResultStore(abc.ABC):
    """Key → result-payload mapping with hit/miss/evict telemetry."""

    def __init__(self, limit: "int | None" = None) -> None:
        self.limit: "int | None" = _positive_int("limit", limit, None)
        #: Hit/miss/evict counters under the ``"result"`` category.
        self.stats = CacheStats()

    # -- public API ----------------------------------------------------------

    def get(self, key: str) -> Any:
        """The stored result for ``key`` (a fresh object), or ``None``.

        Counts one ``result`` hit or miss on :attr:`stats`.
        """
        payload = self._read(str(key))
        if payload is None:
            self.stats.miss("result")
            return None
        self.stats.hit("result")
        return from_payload(payload)

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` (overwrites; may evict)."""
        self._write(str(key), to_payload(result))
        while self.limit is not None and len(self) > self.limit:
            evicted = self._evict_oldest()
            if evicted is None:  # pragma: no cover - defensive
                break
            self.stats.evict("result")

    def __contains__(self, key: str) -> bool:
        return str(key) in self.keys()

    def telemetry(self) -> "dict[str, Any]":
        """JSON-ready snapshot: counters plus size and bound."""
        out = dict(self.stats.to_dict())
        out["size"] = len(self)
        out["limit"] = self.limit
        out["backend"] = type(self).__name__
        return out

    # -- backend hooks -------------------------------------------------------

    @abc.abstractmethod
    def _read(self, key: str) -> "dict[str, Any] | None":
        """Raw payload for ``key``, or ``None``."""

    @abc.abstractmethod
    def _write(self, key: str, payload: "dict[str, Any]") -> None:
        """Persist ``payload`` under ``key`` (insertion order matters)."""

    @abc.abstractmethod
    def _evict_oldest(self) -> "str | None":
        """Drop the oldest entry; returns its key (None when empty)."""

    @abc.abstractmethod
    def keys(self) -> "list[str]":
        """Stored keys, oldest first."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every entry (telemetry counters are kept)."""

    @abc.abstractmethod
    def __len__(self) -> int: ...


class MemoryResultStore(ResultStore):
    """In-process store; payloads live in an ordered dict.

    A re-``put`` refreshes recency, so the optional ``limit`` evicts
    least-recently-stored entries.
    """

    def __init__(self, limit: "int | None" = None) -> None:
        super().__init__(limit=limit)
        self._data: "collections.OrderedDict[str, dict[str, Any]]" = (
            collections.OrderedDict())
        self._lock = threading.Lock()

    def _read(self, key: str) -> "dict[str, Any] | None":
        with self._lock:
            payload = self._data.get(key)
            return None if payload is None else json.loads(
                json.dumps(payload))

    def _write(self, key: str, payload: "dict[str, Any]") -> None:
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = json.loads(json.dumps(payload))

    def _evict_oldest(self) -> "str | None":
        with self._lock:
            if not self._data:
                return None
            key, _payload = self._data.popitem(last=False)
            return key

    def keys(self) -> "list[str]":
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class DirectoryResultStore(ResultStore):
    """One ``<key>.json`` per entry plus an insertion-order index.

    Both the payloads and the index are written to a temp file and
    ``os.replace``'d, so a crash mid-write never leaves a torn entry.
    """

    def __init__(self, path: Any, limit: "int | None" = None) -> None:
        super().__init__(limit=limit)
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    @property
    def _index_path(self) -> pathlib.Path:
        return self.path / "index.json"

    def _entry_path(self, key: str) -> pathlib.Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ReproError(
                f"store key {key!r} is not a hex digest; refusing to "
                "use it as a filename")
        return self.path / f"{key}.json"

    def _load_index(self) -> "list[str]":
        if not self._index_path.exists():
            return []
        with open(self._index_path) as handle:
            return [str(k) for k in json.load(handle)]

    def _atomic_write(self, path: pathlib.Path, blob: str) -> None:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as handle:
            handle.write(blob)
        os.replace(tmp, path)

    def _save_index(self, index: "list[str]") -> None:
        self._atomic_write(self._index_path, json.dumps(index))

    def _read(self, key: str) -> "dict[str, Any] | None":
        with self._lock:
            entry = self._entry_path(key)
            if not entry.exists():
                return None
            with open(entry) as handle:
                payload = json.load(handle)
            return dict(payload)

    def _write(self, key: str, payload: "dict[str, Any]") -> None:
        with self._lock:
            self._atomic_write(self._entry_path(key),
                               json.dumps(payload))
            index = [k for k in self._load_index() if k != key]
            index.append(key)
            self._save_index(index)

    def _evict_oldest(self) -> "str | None":
        with self._lock:
            index = self._load_index()
            if not index:
                return None
            key = index.pop(0)
            self._entry_path(key).unlink(missing_ok=True)
            self._save_index(index)
            return key

    def keys(self) -> "list[str]":
        with self._lock:
            return self._load_index()

    def clear(self) -> None:
        with self._lock:
            for key in self._load_index():
                self._entry_path(key).unlink(missing_ok=True)
            self._save_index([])

    def __len__(self) -> int:
        with self._lock:
            return len(self._load_index())


class SqliteResultStore(ResultStore):
    """Single-file store on stdlib :mod:`sqlite3`.

    Insertion order is the autoincrement rowid; a re-``put`` deletes
    and re-inserts, refreshing recency.  One connection, serialized by
    a lock, is shared across the queue's worker thread and callers.
    """

    def __init__(self, path: Any, limit: "int | None" = None) -> None:
        super().__init__(limit=limit)
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path,
                                     check_same_thread=False)
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "  seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  key TEXT UNIQUE NOT NULL,"
                "  payload TEXT NOT NULL)")
            self._conn.commit()

    def _read(self, key: str) -> "dict[str, Any] | None":
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?",
                (key,)).fetchone()
        if row is None:
            return None
        return dict(json.loads(row[0]))

    def _write(self, key: str, payload: "dict[str, Any]") -> None:
        blob = json.dumps(payload)
        with self._lock:
            self._conn.execute("DELETE FROM results WHERE key = ?",
                               (key,))
            self._conn.execute(
                "INSERT INTO results (key, payload) VALUES (?, ?)",
                (key, blob))
            self._conn.commit()

    def _evict_oldest(self) -> "str | None":
        with self._lock:
            row = self._conn.execute(
                "SELECT seq, key FROM results ORDER BY seq LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            self._conn.execute("DELETE FROM results WHERE seq = ?",
                               (row[0],))
            self._conn.commit()
            return str(row[1])

    def keys(self) -> "list[str]":
        with self._lock:
            rows = self._conn.execute(
                "SELECT key FROM results ORDER BY seq").fetchall()
        return [str(row[0]) for row in rows]

    def clear(self) -> None:
        with self._lock:
            self._conn.execute("DELETE FROM results")
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return int(row[0])

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(target: Any, limit: "int | None" = None) -> ResultStore:
    """Store from a convenience target.

    ``None`` → a fresh :class:`MemoryResultStore`; a path ending in
    ``.db``/``.sqlite`` → :class:`SqliteResultStore`; any other path →
    :class:`DirectoryResultStore`; an existing store passes through
    (``limit`` must then be ``None`` — the store keeps its own bound).
    """
    if isinstance(target, ResultStore):
        if limit is not None:
            raise ReproError(
                "pass limit= when constructing the store, not to "
                "open_store on an existing instance")
        return target
    if target is None:
        return MemoryResultStore(limit=limit)
    path = pathlib.Path(target)
    if path.suffix in (".db", ".sqlite", ".sqlite3"):
        return SqliteResultStore(path, limit=limit)
    return DirectoryResultStore(path, limit=limit)
