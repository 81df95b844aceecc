"""Zero-dependency tracing and metrics recorder for the noise engines.

Every engine in this library accepts a recorder and wraps its stages —
preflight, per-frequency solves, fallback attempts, batched spectral
kernels, executor chunks — in named *spans* with monotonic timings and
free-form tags, alongside *counters* (cache hits, solved frequencies,
fallback attempts) and *histograms* (per-frequency solve seconds).

The default is :data:`NULL_RECORDER`, a no-op singleton: with tracing
disabled the hot path pays one attribute access and one no-op method
call per instrumented stage — the instrumentation sits at per-frequency
granularity (never inside per-segment loops), so the disabled-recorder
overhead on a real sweep is far below the 2 % gate asserted in
``benchmarks/test_perf_regression.py``.

An enabled :class:`Recorder` is

* **thread-safe** — span/counter/histogram mutation is lock-guarded and
  the open-span stack is thread-local, so a job-queue dispatcher thread
  and its caller each build a correctly-parented subtree;
* **copyable** — recorders pickle (locks and thread-locals are dropped
  and rebuilt), so an object holding one can be pickled or deep-copied;
  :meth:`Recorder.merge` folds another recorder's
  :meth:`Recorder.export` into this one with span ids remapped and
  orphaned roots attached under a caller-supplied parent span.

Span timestamps are ``time.perf_counter()`` — monotonic, comparable
within a process.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "SpanHandle",
    "SpanRecord",
]


@dataclass
class SpanRecord:
    """One recorded span: a named, tagged ``[start, end]`` interval."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in seconds; ``0.0`` while the span is open."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "tags": dict(self.tags),
        }


class _NullSpan:
    """The do-nothing context manager every ``NullRecorder.span`` returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        return None

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    @property
    def span_id(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Disabled recorder: every operation is a no-op.

    The engines hold exactly one reference (``self.recorder``) and guard
    any non-trivial bookkeeping behind ``recorder.enabled``, so the
    disabled cost per instrumented stage is one attribute check plus one
    constant-returning method call.
    """

    __slots__ = ()

    enabled: bool = False

    def span(self, name: str, _parent: int | None = None,
             **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def mark(self) -> int:
        return 0

    def export(self, since: int = 0) -> dict[str, Any]:
        return {"spans": [], "counters": {}, "histograms": {}}

    def merge(self, data: "Recorder | dict[str, Any]",
              parent_id: int | None = None) -> None:
        return None

    def __repr__(self) -> str:
        return "NullRecorder()"


#: Shared no-op singleton — the default recorder of every engine.
NULL_RECORDER = NullRecorder()


class SpanHandle:
    """Context manager over one open :class:`SpanRecord`."""

    __slots__ = ("_recorder", "record")

    def __init__(self, recorder: "Recorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self.record = record

    @property
    def span_id(self) -> int:
        return self.record.span_id

    def tag(self, **tags: Any) -> "SpanHandle":
        """Attach tags to the span; returns self for chaining."""
        self.record.tags.update(tags)
        return self

    @property
    def duration(self) -> float:
        return self.record.duration

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        self._recorder._close(self.record, exc_type)
        return None


class Recorder:
    """In-memory trace + metrics sink (see the module docstring).

    Spans nest through a thread-local stack: a span opened while another
    is open on the same thread records it as its parent, so each thread
    builds its own correctly-parented subtree.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list[SpanRecord] = []
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, list[float]] = {}
        self._next_id = 0

    # -- pickling (locks and thread-locals are rebuilt on load) ------------

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        del state["_local"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, _parent: int | None = None,
             **tags: Any) -> SpanHandle:
        """Open a span; use as a context manager so it always closes.

        The parent is the innermost open span of the *current thread*;
        ``_parent`` overrides it explicitly, attaching the span under a
        span that lives on another thread's stack.
        """
        stack = self._stack()
        parent = _parent if _parent is not None else (
            stack[-1] if stack else None)
        with self._lock:
            self._next_id += 1
            record = SpanRecord(name=name, span_id=self._next_id,
                                parent_id=parent,
                                start=time.perf_counter(), tags=tags)
            self._spans.append(record)
        stack.append(record.span_id)
        return SpanHandle(self, record)

    def _close(self, record: SpanRecord,
               exc_type: type[BaseException] | None) -> None:
        record.end = time.perf_counter()
        if exc_type is not None:
            record.tags.setdefault("error", exc_type.__name__)
        stack = self._stack()
        if stack and stack[-1] == record.span_id:
            stack.pop()
        elif record.span_id in stack:
            # Out-of-order close (generator suspension, manual exit):
            # drop the id wherever it sits so the stack stays sane.
            stack.remove(record.span_id)

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named monotonically-increasing counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(n)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        with self._lock:
            self._histograms.setdefault(name, []).append(float(value))

    # -- accessors ---------------------------------------------------------

    @property
    def spans(self) -> list[SpanRecord]:
        """Snapshot copy of every recorded span, in record order."""
        with self._lock:
            return list(self._spans)

    @property
    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def histograms(self) -> dict[str, list[float]]:
        with self._lock:
            return {name: list(values)
                    for name, values in self._histograms.items()}

    def histogram_summary(self) -> dict[str, dict[str, float]]:
        """``{name: {count, total, min, max, mean}}`` per histogram."""
        summary: dict[str, dict[str, float]] = {}
        for name, values in self.histograms.items():
            if not values:
                continue
            total = float(sum(values))
            summary[name] = {
                "count": float(len(values)),
                "total": total,
                "min": float(min(values)),
                "max": float(max(values)),
                "mean": total / len(values),
            }
        return summary

    def mark(self) -> int:
        """Position marker: the number of spans recorded so far.

        Pass it back to :meth:`export` (or the render helpers) to scope
        a view to "everything since the mark" — one sweep out of a
        long-lived recorder.
        """
        with self._lock:
            return len(self._spans)

    def is_balanced(self) -> bool:
        """True when every recorded span has been closed."""
        return all(span.closed for span in self.spans)

    # -- export / merge ----------------------------------------------------

    def export(self, since: int = 0) -> dict[str, Any]:
        """JSON-friendly dump of spans (from ``since``) and metrics."""
        with self._lock:
            spans = [span.to_dict() for span in self._spans[since:]]
            counters = dict(self._counters)
            histograms = {name: list(values)
                          for name, values in self._histograms.items()}
        return {"spans": spans, "counters": counters,
                "histograms": histograms}

    def to_json(self, since: int = 0, indent: int | None = 2) -> str:
        """The :meth:`export` document serialized as JSON."""
        return json.dumps(self.export(since), indent=indent,
                          default=str, sort_keys=False)

    def merge(self, data: "Recorder | dict[str, Any]",
              parent_id: int | None = None) -> None:
        """Fold another recorder's export into this one.

        Span ids are remapped into this recorder's id space (parent
        links preserved); spans that were roots in the source attach
        under ``parent_id`` when one is given, so the merged subtree
        joins this recorder's tree.  Counters add; histogram samples
        append.
        """
        if isinstance(data, Recorder):
            data = data.export()
        spans = data.get("spans", [])
        with self._lock:
            id_map: dict[int, int] = {}
            for span in spans:
                self._next_id += 1
                id_map[int(span["span_id"])] = self._next_id
            for span in spans:
                parent = span.get("parent_id")
                if parent is not None and int(parent) in id_map:
                    new_parent: int | None = id_map[int(parent)]
                else:
                    new_parent = parent_id
                self._spans.append(SpanRecord(
                    name=str(span["name"]),
                    span_id=id_map[int(span["span_id"])],
                    parent_id=new_parent,
                    start=float(span["start"]),
                    end=(float(span["end"])
                         if span.get("end") is not None else None),
                    tags=dict(span.get("tags", {}))))
            for name, n in data.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(n)
            for name, values in data.get("histograms", {}).items():
                self._histograms.setdefault(name, []).extend(
                    float(v) for v in values)

    def reset(self) -> None:
        """Drop every span and metric (the id counter keeps advancing)."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        with self._lock:
            n_spans = len(self._spans)
            open_spans = sum(1 for s in self._spans if s.end is None)
            n_counters = len(self._counters)
        return (f"Recorder({n_spans} spans, {open_spans} open, "
                f"{n_counters} counters)")
