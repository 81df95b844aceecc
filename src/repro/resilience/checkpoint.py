"""Chunk-granular checkpoint/resume store for PSD sweeps.

A multi-hour corner sweep must survive a host interruption without
losing completed work.  :class:`SweepCheckpoint` persists each finished
executor chunk as it completes — the float64 values bit-exactly in an
``.npz`` per chunk, the failure/attempt/finding records as JSON in one
``meta.json`` — so a re-run with the same ``checkpoint=`` path loads the
completed chunks and computes only the missing frequencies.  Resumed
values are byte-for-byte the stored ones, so an interrupted-and-resumed
sweep is bit-identical to an uninterrupted one
(``tests/test_executor_resilience.py`` pins this).

Compatibility is enforced through a *key*: the executor derives it from
the :func:`~repro.mft.context.discretization_fingerprint` of the system
(content hash of phases, matrices, density), the analysed output row,
a hash of the frequency grid bytes, the resolved solver, the chunk
size, and the failure mode.  :meth:`SweepCheckpoint.open` raises when a
directory holds chunks for a *different* key — a checkpoint can never
silently splice stale numbers into a new sweep.  Deleting the directory
resets it.

Writes are atomic (`os.replace` of a temp file) and incremental: a kill
between chunk writes leaves a loadable store containing every chunk
that fully completed.  Budget-skipped and failed chunks are *not*
recorded, so a resume retries them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import ReproError

__all__ = ["SweepCheckpoint"]

_META_NAME = "meta.json"
_FORMAT_VERSION = 1


def _jsonify(value: Any) -> Any:
    """Best-effort JSON coercion for finding data payloads."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return str(value)


class SweepCheckpoint:
    """On-disk store of completed sweep chunks under one directory.

    Construct with a path (created on first use), hand it — or just the
    path — to ``psd_sweep(..., checkpoint=...)``.  The executor drives
    the lifecycle: :meth:`open` validates the key and returns the chunks
    already on disk, :meth:`record` persists each newly completed chunk.
    """

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = Path(path)
        self._key: dict[str, Any] | None = None
        self._chunks: dict[int, dict[str, Any]] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.path / _META_NAME

    def open(self, key: dict[str, Any]
             ) -> dict[int, tuple[Any, ...]]:
        """Bind the store to ``key``; load chunks recorded under it.

        Returns ``{chunk_start: (values, failures, attempts, findings,
        None)}`` — the executor's chunk-output shape — for every chunk
        already on disk.  An empty or absent directory initialises
        fresh; a directory recorded under a different key raises
        :class:`~repro.errors.ReproError` (delete it to start over).
        """
        # Imported here, not at module level: repro.linalg.checked pulls
        # in repro.resilience.faults for its injection seam, and
        # diagnostics.preflight pulls in repro.linalg — a top-level
        # diagnostics import here would close that cycle.
        from ..diagnostics.fallback import AttemptRecord
        from ..diagnostics.report import Finding, FrequencyFailure

        self.path.mkdir(parents=True, exist_ok=True)
        self._key = dict(key)
        self._chunks = {}
        if not self.meta_path.exists():
            self._write_meta()
            return {}
        try:
            meta = json.loads(self.meta_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"checkpoint {self.path} is unreadable: {exc}") from exc
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ReproError(
                f"checkpoint {self.path} has format version "
                f"{meta.get('format_version')!r}; this build reads "
                f"{_FORMAT_VERSION}")
        stored = meta.get("key", {})
        if stored != self._key:
            mismatched = sorted(
                name for name in set(stored) | set(self._key)
                if stored.get(name) != self._key.get(name))
            raise ReproError(
                f"checkpoint {self.path} was recorded for a different "
                f"sweep (mismatched: {mismatched}); delete the "
                "directory to start over")
        completed: dict[int, tuple[Any, ...]] = {}
        for record in meta.get("chunks", []):
            start = int(record["start"])
            npz_path = self.path / record["file"]
            if not npz_path.exists():
                continue  # interrupted between npz and meta rewrite
            with np.load(npz_path) as payload:
                values = np.array(payload["values"], dtype=float)
            if values.size != int(record["size"]):
                raise ReproError(
                    f"checkpoint chunk {npz_path} holds {values.size} "
                    f"values; meta says {record['size']}")
            failures = [FrequencyFailure.from_dict(f)
                        for f in record["failures"]]
            attempts = [AttemptRecord.from_dict(a)
                        for a in record["attempts"]]
            findings = [Finding.from_dict(f)
                        for f in record["findings"]]
            completed[start] = (values, failures, attempts, findings,
                                None)
            self._chunks[start] = record
        return completed

    def record(self, start: int, values: np.ndarray, failures: list,
               attempts: list, findings: list) -> None:
        """Persist one completed chunk (values bit-exact, records JSON).

        ``failures`` carry chunk-local indices — the executor's merge
        adds the chunk offset, and a resumed chunk must replay through
        the same merge.
        """
        if self._key is None:
            raise ReproError(
                "SweepCheckpoint.record before open(): the store is "
                "not bound to a sweep key yet")
        start = int(start)
        array = np.asarray(values, dtype=float)
        filename = f"chunk_{start:08d}.npz"
        self._atomic_write_npz(self.path / filename, array)
        self._chunks[start] = {
            "start": start,
            "size": int(array.size),
            "file": filename,
            "failures": [f.to_dict() for f in failures],
            "attempts": [a.to_dict() for a in attempts],
            "findings": [f.to_dict() for f in findings],
        }
        self._write_meta()

    # -- introspection -----------------------------------------------------

    @property
    def n_chunks(self) -> int:
        return len(self._chunks)

    def __repr__(self) -> str:
        return (f"SweepCheckpoint({str(self.path)!r}, "
                f"{len(self._chunks)} chunks)")

    # -- internals ---------------------------------------------------------

    def _write_meta(self) -> None:
        document = {
            "format_version": _FORMAT_VERSION,
            "key": self._key,
            "chunks": [self._chunks[start]
                       for start in sorted(self._chunks)],
        }
        tmp = self.meta_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document, indent=2,
                                  default=_jsonify) + "\n")
        os.replace(tmp, self.meta_path)

    @staticmethod
    def _atomic_write_npz(path: Path, values: np.ndarray) -> None:
        tmp = path.with_suffix(".npz.tmp")
        with open(tmp, "wb") as handle:
            np.savez(handle, values=values)
        os.replace(tmp, path)
