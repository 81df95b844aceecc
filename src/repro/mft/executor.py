"""Chunked frequency-sweep execution for the MFT engine.

The frequencies of a PSD sweep are independent — each is one periodic
steady-state solve — so a sweep splits into chunks of consecutive
frequencies.  :class:`SweepExecutor` runs those chunks in order, in the
caller's process; every MFT sweep,
:meth:`~repro.mft.engine.MftNoiseAnalyzer.psd` included, goes through
it, with these semantics:

* **Values**: per-frequency numerics of the analyzer's chunk loop,
  merged back in frequency order.
* **Partial failure**: a frequency whose fallback chain is exhausted
  contributes NaN plus a :class:`FrequencyFailure` with its *global*
  sweep index.
* **Diagnostics**: each chunk collects its findings into a chunk-local
  report, merged in chunk order; negative-PSD clipping is diagnosed
  once on the merged values.
* **Budget**: the :class:`~repro.diagnostics.budget.SweepBudget` gates
  the *dispatch* of each chunk.  Once spent, no further chunk starts
  and the remaining frequencies become ``budget``-stage failures — but
  a chunk already started always runs to completion.  A batched sweep
  at the default chunk size is usually one chunk, so its budget makes
  one decision: before the sweep starts.

Numerical failures (:class:`~repro.errors.ReproError`: the
``on_failure="raise"`` contract, structural errors) propagate, and so
does any other exception: re-running the same deterministic chunk
would fail the same way.
"""

from __future__ import annotations

import dataclasses
import logging
import numbers
import time

import numpy as np

from ..diagnostics.budget import as_budget
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError
from ..noise.result import PsdResult, clip_negative_psd, worst_negative_psd
from ..obs import span_summary

logger = logging.getLogger(__name__)

#: Default chunk size of the per-frequency ``mft`` sweep: large enough
#: to amortise dispatch overhead, small enough that the budget gate has
#: frequent decision points.
_DEFAULT_CHUNK = 8

#: Byte cap on the largest array of one batched ω-block, the
#: ``(R, S, F, n)`` complex step-forcing stack of
#: :func:`~repro.mft.spectral.solve_spectral_batch` (forcing rows ×
#: segments × frequencies × states × 16 B).  At the default chunk size
#: a batched sweep is one block unless its stack would exceed this, so
#: the cap bounds the memory of one block, not its speed: the trace is
#: one pass over runs per block, and splitting a grid into more blocks
#: costs little.  32 MiB is just above a 192-state cascade's
#: 64-frequency block at 64 segments per phase (≈ 24 MiB).
SPECTRAL_STACK_CAP_BYTES = 32 * 2**20

#: ``None`` and ``"mft"`` are the same per-frequency reference sweep —
#: ``"mft"`` is the unified-API spelling (:mod:`repro.noise.solvers`).
#: ``"param-batch"`` is the corner-sweep analyzer's flattened
#: (param, freq)-axis solver (:mod:`repro.mft.corners`); it is reached
#: through :func:`repro.mft.corners.corner_psd_sweep`, not the unified
#: solver registry.
_SOLVERS = (None, "mft", "spectral-batch", "param-batch")


def _positive_int(name, value, default, minimum=1):
    """Validate an integer knob.

    ``None`` selects ``default``.  Booleans and non-integral values are
    rejected (``chunk_size=-3`` used to be silently accepted
    downstream); the error states the allowed range.
    """
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ReproError(
            f"{name} must be an integer >= {minimum} (or None for the "
            f"default), got {value!r} of type {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ReproError(
            f"{name} must be >= {minimum}, got {value}; allowed range "
            f"is [{minimum}, ∞)")
    return value


def spectral_block_size(context, n_freq, n_rows):
    """Frequencies per ω-block of a batched sweep at the default chunk size.

    The whole grid of ``n_freq`` frequencies, unless the kernel's
    ``(n_rows, S, n_freq, n)`` step-forcing stack on ``context``'s
    segment structure would exceed :data:`SPECTRAL_STACK_CAP_BYTES`;
    then the largest frequency count that fits, and never less than one.
    """
    structure = context.structure
    n_seg, n_states = structure.n_segments, structure.n_states
    per_frequency = n_rows * n_seg * n_states * np.dtype(complex).itemsize
    return max(1, min(n_freq, SPECTRAL_STACK_CAP_BYTES // per_frequency))


def _run_chunk(analyzer, frequencies, on_failure, solver, labels,
               chunk_start):
    """Sweep one chunk with a chunk-local report.

    Hands the chunk to the analyzer's ``_sweep_chunk`` — the engine's
    one chunk loop (:func:`repro.mft.engine.sweep_chunk`) with the
    analyzer's batch and per-point hooks for ``solver`` — together with
    the attribution request ``labels`` and the chunk offset
    ``chunk_start`` (flattened-axis analyzers recover cell identities
    from it).  Runs unbudgeted (the budget gates dispatch, not
    execution) and returns *unclipped* values — clipping is diagnosed
    once on the merged sweep.
    """
    report = DiagnosticsReport(context="mft sweep chunk")
    with analyzer.recorder.span("executor.chunk", n=int(len(frequencies))):
        values, failures, attempts = analyzer._sweep_chunk(
            np.asarray(frequencies, dtype=float), on_failure, report,
            labels, solver, int(chunk_start))
    return values, failures, attempts, report.findings


class SweepExecutor:
    """Run an MFT frequency sweep as a serial loop over chunks.

    Parameters
    ----------
    chunk_size:
        Frequencies per dispatched chunk.  The default is 8 for the
        per-frequency sweep; for a batched solver (``"spectral-batch"``,
        ``"param-batch"``), where each chunk is one ω-block, it is the
        whole grid — one chunk, so one budget decision — unless the
        block's kernel stack would exceed
        :data:`SPECTRAL_STACK_CAP_BYTES` (see
        :func:`spectral_block_size`).  Smaller chunks give the budget
        gate finer granularity; larger chunks amortise per-chunk
        overhead.
    solver:
        ``None`` (default) sweeps each chunk through the per-frequency
        fallback chain; ``"spectral-batch"`` evaluates each chunk as
        one ω-block through :mod:`repro.mft.spectral`.
    """

    def __init__(self, chunk_size=None, solver=None):
        if solver not in _SOLVERS:
            raise ReproError(
                f"unknown sweep solver {solver!r}; expected one of "
                f"{_SOLVERS}")
        self.solver = None if solver == "mft" else solver
        # ``None`` for a batched solver: the block is sized per sweep.
        self.chunk_size = _positive_int(
            "chunk_size", chunk_size,
            _DEFAULT_CHUNK if self.solver is None else None)

    # -- public API ----------------------------------------------------------

    def run(self, analyzer, frequencies, budget=None, on_failure="record",
            attribute_sources=False):
        """Sweep ``frequencies`` with ``analyzer``; returns a PsdResult.

        The one result path of every MFT sweep (:meth:`MftNoiseAnalyzer.psd`
        is ``psd_sweep`` at the default chunk size); ``info["executor"]``
        reports the chunking actually used: ``chunk_size`` is the size
        of the largest chunk (0 for an empty grid).

        ``attribute_sources`` is resolved once to the attribution
        request — a tuple of budget-row labels, or ``None`` — which
        travels with every chunk; the result then carries the
        per-source :class:`~repro.metrics.ContributionBudget`.
        """
        if on_failure not in ("record", "raise"):
            raise ReproError(
                f"on_failure must be 'record' or 'raise', "
                f"got {on_failure!r}")
        labels = analyzer._attribution_request(attribute_sources)
        width = 1 if labels is None else 1 + len(labels)
        freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
        budget = as_budget(budget if budget is not None
                           else analyzer.budget)
        budget.start()
        report = DiagnosticsReport(context="mft sweep")
        report.merge(analyzer.preflight)
        rec = analyzer.recorder
        mark = rec.mark()
        t0 = time.perf_counter()
        with rec.span("mft.sweep", solver=self.solver or "mft",
                      n=int(freqs.size)):
            # Warm-up builds what every solver reads.
            with rec.span("mft.warmup"):
                analyzer.warm_up(sources=labels is not None)
            stride = (self.chunk_size if self.chunk_size is not None
                      else analyzer._spectral_block(freqs.size, labels))
            chunks = [(start, freqs[start:start + stride])
                      for start in range(0, freqs.size, stride)]
            outputs = []
            with rec.span("executor.dispatch", n_chunks=len(chunks)):
                for start, chunk in chunks:
                    if budget.exceeded() is not None:
                        break
                    outputs.append(_run_chunk(
                        analyzer, chunk, on_failure, self.solver, labels,
                        start))
            with rec.span("executor.merge"):
                values, failures, attempts = _merge(
                    freqs, chunks, outputs, budget, report, width)
            raw_total, clipped, contribution = _finalize(
                analyzer, freqs, values, report, labels,
                self.solver or "mft")
        runtime = time.perf_counter() - t0
        if rec.enabled:
            rec.count("executor.chunks_dispatched", len(outputs))
            report.timeline = span_summary(rec, since=mark)
        return PsdResult(
            frequencies=freqs, psd=clipped, method="mft",
            output=analyzer._output_name(),
            info={
                "runtime_seconds": runtime,
                "solver": self.solver or "mft",
                "segments": analyzer.context.structure.durations.size,
                "negative_clipped": int(np.sum(
                    np.isfinite(raw_total) & (raw_total < 0.0))),
                "worst_negative_psd": worst_negative_psd(raw_total),
                "diagnostics": report,
                "failures": failures,
                "fallback_attempts": attempts,
                "budget": contribution,
                "executor": {
                    "solver": self.solver,
                    "chunk_size": chunks[0][1].size if chunks else 0,
                    "n_chunks": len(chunks),
                    "n_chunks_skipped": len(chunks) - len(outputs),
                },
            })


def _merge(freqs, chunks, outputs, budget, report, width):
    """Stitch chunk outputs back into one sweep, in index order.

    ``outputs`` holds the results of the leading chunks; the chunks
    after them were skipped by the budget gate and become
    ``budget``-stage failures.  In attribution mode (``width > 1``) the
    merge buffer is ``(n_freq, width)`` and a skipped chunk leaves its
    whole rows NaN — total and budget columns together.
    """
    values = np.full(freqs.shape if width == 1
                     else (freqs.size, width), np.nan)
    failures = []
    attempts = []
    for (start, chunk), output in zip(chunks, outputs):
        chunk_values, chunk_failures, chunk_attempts, findings = output
        values[start:start + chunk.size] = chunk_values
        for failure in chunk_failures:
            failures.append(dataclasses.replace(
                failure, index=failure.index + start))
        attempts.extend(chunk_attempts)
        report.merge(findings)
    skipped = chunks[len(outputs):]
    if skipped:
        reason = budget.exceeded() or "budget exhausted"
        n_skipped = 0
        for start, chunk in skipped:
            n_skipped += chunk.size
            for k in range(start, start + chunk.size):
                failures.append(FrequencyFailure(
                    frequency=float(freqs[k]), index=k,
                    stage="budget", error="BudgetExceededError",
                    message=reason))
        report.error(
            "budget-exhausted",
            f"sweep budget spent before {n_skipped} of "
            f"{freqs.size} frequencies: {reason}",
            skipped=n_skipped, reason=reason)
        logger.warning(
            "sweep budget spent: %d chunks not dispatched "
            "(%d frequencies)", len(skipped), n_skipped)
    failures.sort(key=lambda failure: failure.index)
    return values, failures, attempts


def _finalize(analyzer, freqs, values, report, labels, solver):
    """Clip the total PSD and split off the attribution budget.

    ``values`` is the merged sweep output: 1-D without attribution,
    ``(n_freq, 1 + len(labels))`` with it (column 0 the total, columns
    1… the per-source rows).  Returns ``(raw_total, clipped_total,
    budget_or_none)``; the budget rows are deliberately **unclipped**
    so they sum to the unclipped total exactly, and a frequency that is
    NaN in the total is NaN in every budget row (whole rows fail
    together — the NaN-union contract).
    """
    rec = analyzer.recorder
    if labels is None:
        with rec.span("mft.clip"):
            clipped = clip_negative_psd(freqs, values, report,
                                        logger=logger)
        return values, clipped, None
    raw_total = np.ascontiguousarray(values[:, 0])
    contributions = np.ascontiguousarray(values[:, 1:].T)
    with rec.span("mft.clip"):
        clipped = clip_negative_psd(freqs, raw_total, report,
                                    logger=logger)
    with rec.span("attribution.budget", n_sources=len(labels)):
        from ..metrics import ContributionBudget
        contribution = ContributionBudget(
            frequencies=freqs, labels=list(labels),
            contributions=contributions, total=raw_total,
            output=analyzer._output_name(), method="mft",
            solver=solver)
    rec.count("attribution.sources", len(labels))
    rec.count("attribution.sweeps")
    return raw_total, clipped, contribution
