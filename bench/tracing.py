"""Tracing for the traced replay: request spans and per-layer metrics.

The replay records three kinds of spans into one
:class:`repro.obs.Recorder` per request:

* the benchmark's own spans around each public call (model build,
  analysis construction, sweep, metric, submit);
* the library's spans inside the sweep (``mft.preflight``,
  ``mft.sweep``, ``executor.*``, ``spectral.*``), from the public
  ``recorder=`` argument;
* spans around the lazily computed layers of the sweep context
  (discretization, covariance, structure, forcing, eigenbasis), from
  :class:`TracedContext` — a ``SweepContext`` subclass registered through
  the public ``sweep_context_for(..., build=)`` hook, so the library
  computes each layer where and when it always does.
"""

from __future__ import annotations

import threading
import time

from repro.mft.context import SweepContext, sweep_context_for
from repro.obs import NULL_RECORDER, Recorder
from repro.service import SqliteResultStore


class TracedContext(SweepContext):
    """A sweep context whose cached layers record spans when touched."""

    def __init__(self, system, segments_per_phase, recorder):
        super().__init__(system, segments_per_phase)
        self.recorder = recorder

    @property
    def disc(self):
        with self.recorder.span("lptv.discretize"):
            return SweepContext.disc.fget(self)

    @property
    def structure(self):
        with self.recorder.span("mft.context.structure"):
            return SweepContext.structure.fget(self)

    @property
    def monodromy(self):
        with self.recorder.span("mft.context.structure"):
            return SweepContext.monodromy.fget(self)

    @property
    def covariance(self):
        with self.recorder.span("noise.covariance"):
            return SweepContext.covariance.fget(self)

    @property
    def spectral_bases(self):
        with self.recorder.span("mft.context.eigenbasis"):
            return SweepContext.spectral_bases.fget(self)

    def forcing_pairs(self, l_row):
        with self.recorder.span("mft.context.forcing"):
            return super().forcing_pairs(l_row)

    def source_disc(self, source):
        with self.recorder.span("lptv.discretize"):
            return super().source_disc(source)

    def source_covariance(self, source):
        with self.recorder.span("noise.covariance"):
            return super().source_covariance(source)

    def source_forcing_pairs(self, l_row, source):
        with self.recorder.span("mft.context.forcing"):
            return super().source_forcing_pairs(l_row, source)


class Tracer:
    """What a request needs to know about tracing.

    ``Tracer()`` is tracing off: spans are the library's no-op recorder
    and analyses take their contexts from the registry as usual.
    ``Tracer(Recorder())`` records spans and registers a
    :class:`TracedContext` for every system the request analyses.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder if recorder is not None else NULL_RECORDER

    @property
    def enabled(self):
        return self.recorder.enabled

    def span(self, name, **tags):
        return self.recorder.span(name, **tags)

    def register(self, system, segments_per_phase, family=None):
        """Pre-register a traced context for ``system`` (traced only)."""
        if not self.enabled:
            return None
        rec = self.recorder
        with rec.span("mft.context.lookup"):
            return sweep_context_for(
                system, segments_per_phase, family=family,
                build=lambda: TracedContext(system, segments_per_phase,
                                            rec))

    def analysis_options(self, system, segments_per_phase):
        """``NoiseAnalysis`` keywords for one analysed system."""
        if not self.enabled:
            return {}
        return {"context": self.register(system, segments_per_phase),
                "recorder": self.recorder}


def new_tracer():
    return Tracer(Recorder())


class TimedStore(SqliteResultStore):
    """The queue's sqlite store, timing every ``get`` and ``put``.

    ``events`` holds ``(thread id, "get" | "put", start, end)`` in call
    order.  The queue calls ``get`` once per submission on the submitting
    thread and once per dequeued job on its dispatcher thread, then
    ``put`` after each computed job, so the events map back to requests
    without touching the queue's internals.
    """

    def __init__(self, path):
        super().__init__(path)
        self.events = []

    def _timed(self, op, call, *args):
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.events.append((threading.get_ident(), op, start,
                                time.perf_counter()))

    def get(self, key):
        return self._timed("get", super().get, key)

    def put(self, key, result):
        return self._timed("put", super().put, key, result)


# -- span arithmetic -----------------------------------------------------------

def union_length(intervals, lo=None, hi=None):
    """Total length covered by ``intervals``, clipped to ``[lo, hi]``."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def closed_spans(recorder):
    return [span for span in recorder.spans if span.end is not None]


def self_times(spans):
    """``span_id -> duration minus the part its children cover``."""
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - union_length(
                children.get(span.span_id, ()), span.start, span.end)
            for span in spans}


#: Per-layer time metrics: metric -> (span name, "self" or "total").
_SPAN_METRICS = {
    "circuits.build_s": ("circuits.build", "total"),
    "lptv.discretize_s": ("lptv.discretize", "self"),
    "noise.covariance_s": ("noise.covariance", "self"),
    "mft.context.structure_s": ("mft.context.structure", "self"),
    "mft.context.forcing_s": ("mft.context.forcing", "self"),
    "mft.context.eigenbasis_s": ("mft.context.eigenbasis", "self"),
    "diagnostics.preflight_s": ("mft.preflight", "self"),
    "mft.sweep_s": ("mft.sweep", "total"),
    "mft.sweep_self_s": ("mft.sweep", "self"),
    "mft.spectral.step_integrals_s": ("spectral.step-integrals", "total"),
    "mft.spectral.solve_s": ("spectral.solve", "total"),
    "mft.spectral.trace_s": ("spectral.trace", "total"),
    "mft.spectral.period_integral_s": ("spectral.period-integral",
                                       "total"),
    "mft.executor.dispatch_self_s": ("executor.dispatch", "self"),
    "metrics.band_s": ("metrics.band", "total"),
}


def layer_sums(recorder, n_states):
    """Per-layer values of one traced request (sums over its spans)."""
    spans = closed_spans(recorder)
    selfs = self_times(spans)
    out = {}
    for metric, (name, kind) in _SPAN_METRICS.items():
        out[metric] = sum(selfs[s.span_id] if kind == "self"
                          else s.duration
                          for s in spans if s.name == name)
    out["mft.spectral.rescued_points"] = sum(
        1 for s in spans if s.name == "mft.solve" and s.tags.get("rescued"))
    out["mft.spectral.stack_bytes"] = max(
        [int(s.tags.get("n", 0)) * n_states * n_states * 16
         for s in spans if s.name == "spectral.solve"], default=0)
    out["mft.executor.chunks"] = sum(
        1 for s in spans if s.name == "executor.chunk")
    out["mft.executor.retries"] = recorder.counters.get(
        "executor.retries", 0)
    out["circuits.n_states"] = n_states
    return out
