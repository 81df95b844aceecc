"""Chunked frequency-sweep execution for the MFT engine.

The frequencies of a PSD sweep are independent — each is one periodic
steady-state solve — and a corner family only adds right-hand sides to
those solves.  So every MFT sweep is a list of dynamics roots
(:class:`~repro.mft.corners.RootMap`) over one flat, frequency-major
axis: cell ``i`` is frequency ``i // M`` of corner ``i % M`` for the
``M`` corners the roots map.  A plain sweep is one root of one
unit-scale corner, so its flat axis *is* its frequency axis.

:func:`run_sweep` splits that axis into chunks of whole frequency
slices and runs them in order, in the caller's process;
:meth:`~repro.mft.engine.MftNoiseAnalyzer.psd_sweep` (and so
:meth:`~repro.mft.engine.MftNoiseAnalyzer.psd`) and
:func:`~repro.mft.corners.corner_psd_sweep` both call it.  Each chunk
runs the one chunk loop :func:`sweep_chunk` with the roots' chunk steps
(:func:`~repro.mft.corners.chunk_steps`), with these semantics:

* **Values**: per-cell numerics of the chunk loop, merged back in flat
  order.
* **Chunking**: ``chunk_size`` counts frequencies.  The default is 8
  for the per-frequency ``mft`` sweep; a ``spectral-batch`` sweep, each
  of whose chunks is one ω-block, defaults to the whole grid unless the
  largest root's kernel stack would exceed
  :data:`SPECTRAL_STACK_CAP_BYTES` (:func:`spectral_block_size`).
* **Partial failure**: a cell whose fallback chain is exhausted
  contributes NaN plus a :class:`FrequencyFailure` with its *global*
  flat index.
* **Diagnostics**: each chunk collects its findings into a chunk-local
  report, merged in chunk order; negative-PSD clipping is diagnosed
  once on the merged values.
* **Budget**: the :class:`~repro.diagnostics.budget.SweepBudget` gates
  the *dispatch* of each chunk.  Once spent, no further chunk starts
  and the remaining cells become ``budget``-stage failures — but a
  chunk already started always runs to completion.  A batched sweep at
  the default chunk size is usually one chunk, so its budget makes one
  decision: before the sweep starts.

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
from ..diagnostics.fallback import FallbackExhausted, run_fallback_chain
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError
from ..noise.result import PsdResult, clip_negative_psd, worst_negative_psd
from ..obs import span_summary
from .corners import chunk_steps, corner_index

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


def check_on_failure(on_failure):
    """Reject an ``on_failure`` other than ``"record"`` or ``"raise"``."""
    if on_failure not in ("record", "raise"):
        raise ReproError(
            f"on_failure must be 'record' or 'raise', got {on_failure!r}")


def run_sweep(roots, frequencies, *, solver, chunk_size, budget,
              on_failure, labels):
    """Sweep ``roots`` over the flat ``frequencies`` axis; a PsdResult.

    The one result path of every MFT sweep.  ``roots`` is a list of
    :class:`~repro.mft.corners.RootMap` covering corners ``0 … M − 1``
    and ``frequencies`` the flat, frequency-major axis (cell ``i`` is
    corner ``i % M``; ``M = 1`` for a plain sweep).  ``solver`` is
    ``"mft"`` or ``"spectral-batch"``; ``chunk_size`` counts
    frequencies per chunk, so a chunk holds ``chunk_size × M`` cells
    (see the module docstring for the defaults).  ``labels`` is the
    attribution request — a tuple of budget-row labels, or ``None`` —
    which travels with every chunk; the result then carries the
    per-source :class:`~repro.metrics.ContributionBudget`.
    ``info["executor"]`` reports the chunking actually used:
    ``chunk_size`` is the cell count of the largest chunk (0 for an
    empty grid).
    """
    check_on_failure(on_failure)
    chunk_size = _positive_int(
        "chunk_size", chunk_size,
        _DEFAULT_CHUNK if solver == "mft" else None)
    first = roots[0].analyzer
    rec = first.recorder
    index = corner_index(roots)
    n_corners = index[0].size
    width = 1 if labels is None else 1 + len(labels)
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    budget = as_budget(budget)
    budget.start()
    report = DiagnosticsReport(context="mft sweep")
    # Roots on one registered context share its preflight report.
    for preflight in {id(root.analyzer.preflight): root.analyzer.preflight
                      for root in roots}.values():
        report.merge(preflight)
    mark = rec.mark()
    t0 = time.perf_counter()
    with rec.span("mft.sweep", solver=solver, n=int(freqs.size)):
        # Warm-up builds what every solver reads.
        with rec.span("mft.warmup"):
            for root in roots:
                root.analyzer.warm_up(
                    sources=labels is not None or root.needs_sources)
        if chunk_size is None:
            chunk_size = spectral_block_size(
                first.context, freqs.size // n_corners,
                max(root.n_rows(labels) for root in roots))
        stride = chunk_size * n_corners
        chunks = [(start, freqs[start:start + stride])
                  for start in range(0, freqs.size, stride)]
        outputs = []
        with rec.span("executor.dispatch", n_chunks=len(chunks)):
            for start, chunk in chunks:
                if budget.exceeded() is not None:
                    break
                # Unbudgeted (the budget gates dispatch, not execution),
                # with a chunk-local report; values come back unclipped.
                chunk_report = DiagnosticsReport(context="mft sweep chunk")
                with rec.span("executor.chunk", n=int(chunk.size)):
                    steps = chunk_steps(roots, index, solver, chunk,
                                        start, chunk_report, labels)
                    output = sweep_chunk(chunk, on_failure, chunk_report,
                                         labels, rec, *steps)
                outputs.append((*output, chunk_report.findings))
        with rec.span("executor.merge"):
            values, failures, attempts = _merge(
                freqs, chunks, outputs, budget, report, width)
        raw_total, clipped, contribution = _finalize(
            rec, first._output_name(), freqs, values, report, labels,
            solver)
    runtime = time.perf_counter() - t0
    if rec.enabled:
        rec.count("executor.chunks_dispatched", len(outputs))
        report.timeline = span_summary(rec, since=mark)
    return PsdResult(
        frequencies=freqs, psd=clipped, method="mft",
        output=first._output_name(),
        info={
            "runtime_seconds": runtime,
            "solver": solver,
            "segments": first.context.structure.durations.size,
            "negative_clipped": int(np.sum(
                np.isfinite(raw_total) & (raw_total < 0.0))),
            "worst_negative_psd": worst_negative_psd(raw_total),
            "diagnostics": report,
            "failures": failures,
            "fallback_attempts": attempts,
            "budget": contribution,
            "executor": {
                "solver": None if solver == "mft" else solver,
                "chunk_size": chunks[0][1].size if chunks else 0,
                "n_chunks": len(chunks),
                "n_chunks_skipped": len(chunks) - len(outputs),
            },
        })


def sweep_chunk(freqs, on_failure, report, labels, recorder, batch_step,
                point_step):
    """The one chunk loop behind every sweep: plain, spectral, corner.

    Non-finite frequencies become ``input``-stage failures.  The
    chunk's ``batch_step(finite_idx, values)``
    (:func:`~repro.mft.corners.chunk_steps`) then solves what it can of
    the finite ones in place and returns what it left unsolved as
    *rescue units*: index arrays whose cells share one frequency and one
    rescue (one cell each under ``mft``, which solves nothing there; a
    dynamics root's cells at one frequency under ``spectral-batch``).
    For each unit, ``point_step(cells, frequency)`` gives
    ``(strategies, span_tags)``: strategies whose value fills every
    cell of the unit.  They run once through the fallback chain
    (:func:`repro.diagnostics.fallback.run_fallback_chain`) inside an
    ``mft.solve`` span; an exhausted chain is a ``solve``-stage failure
    of every cell of the unit — or, with ``on_failure="raise"``,
    aborts the chunk.

    ``labels`` is the attribution request (``None`` or the budget row
    labels).  Returns ``(values, failures, attempts)``: *unclipped*
    values — 1-D, or ``(n, 1 + len(labels))`` rows of ``[total,
    source…]`` — plus failure records with chunk-local indices, sorted.
    :func:`run_sweep` offsets the indices, merges chunks, and diagnoses
    clipping once per sweep.
    """
    width = 1 if labels is None else 1 + len(labels)
    values = np.full(freqs.shape if width == 1
                     else (freqs.size, width), np.nan)
    failures = []
    attempts_log = []
    finite = np.isfinite(freqs)
    for idx in np.nonzero(~finite)[0]:
        exc = ReproError(
            f"analysis frequency must be finite, got {freqs[idx]!r}")
        if on_failure == "raise":
            raise exc.attach_diagnostics(report)
        failures.append(FrequencyFailure(
            frequency=float(freqs[idx]), index=int(idx), stage="input",
            error=type(exc).__name__, message=str(exc)))
        report.error("non-finite-frequency", str(exc), index=int(idx))
        logger.warning("recording NaN at index %d: %s", idx, exc)
    finite_idx = np.nonzero(finite)[0]
    if finite_idx.size:
        recorder.count("sweep.frequencies", int(finite_idx.size))
    units = batch_step(finite_idx, values) if finite_idx.size else ()
    for cells in units:
        f = float(freqs[cells[0]])
        strategies, tags = point_step(cells, f)
        try:
            with recorder.span("mft.solve", frequency=f, **tags) as span:
                value, attempts = run_fallback_chain(
                    strategies, f, report, recorder=recorder)
            attempts_log.extend(attempts)
            values[cells] = value
            if recorder.enabled:
                recorder.observe("mft.solve_seconds", span.duration)
        except FallbackExhausted as exc:
            attempts_log.extend(exc.attempts)
            failures.extend(FrequencyFailure(
                frequency=f, index=int(idx), stage="solve",
                error=type(exc).__name__, message=str(exc))
                for idx in cells)
            if on_failure == "raise":
                raise exc.attach_diagnostics(report)
            logger.warning("recording NaN at %.6g Hz: %s", f, exc)
    failures.sort(key=lambda failure: failure.index)
    return values, failures, attempts_log


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


def _finalize(rec, output, freqs, values, report, labels, solver):
    """Clip the total PSD and split off the attribution budget.

    ``values`` is the merged sweep output: 1-D without attribution,
    ``(n_freq, 1 + len(labels))`` with it (column 0 the total, columns
    1… the per-source rows).  Returns ``(raw_total, clipped_total,
    budget_or_none)``; the budget rows are deliberately **unclipped**
    so they sum to the unclipped total exactly, and a frequency that is
    NaN in the total is NaN in every budget row (whole rows fail
    together — the NaN-union contract).
    """
    if labels is None:
        with rec.span("mft.clip"):
            clipped = clip_negative_psd(freqs, values, report,
                                        logger=logger)
        return values, clipped, None
    raw_total = np.ascontiguousarray(values[:, 0])
    with rec.span("mft.clip"):
        clipped = clip_negative_psd(freqs, raw_total, report,
                                    logger=logger)
    return raw_total, clipped, rows_budget(rec, freqs, labels, values,
                                           output, "mft", solver)


def rows_budget(rec, freqs, labels, rows, output, method, solver):
    """The :class:`~repro.metrics.ContributionBudget` of sweep rows.

    ``rows`` is ``(n_freq, 1 + len(labels))``: each frequency's
    ``[total, source…]``, NaN across the whole row where it failed.
    Every attributed sweep, MFT or brute force, builds its budget here.
    """
    with rec.span("attribution.budget", n_sources=len(labels)):
        from ..metrics import ContributionBudget
        budget = ContributionBudget(
            frequencies=freqs, labels=list(labels),
            contributions=np.ascontiguousarray(rows[:, 1:].T),
            total=np.ascontiguousarray(rows[:, 0]), output=output,
            method=method, solver=solver)
    rec.count("attribution.sources", len(labels))
    rec.count("attribution.sweeps")
    return budget
