"""The one-stop :class:`NoiseAnalysis` façade.

Typical use (this is the quickstart example)::

    from repro.circuits import sc_lowpass_system
    from repro.analysis import NoiseAnalysis

    model = sc_lowpass_system()
    analysis = NoiseAnalysis(model)
    spectrum = analysis.psd(frequencies)          # fast MFT engine
    trace = analysis.convergence_trace(7.5e3)     # paper Fig. 1
    report = analysis.contribution_report(7.5e3)  # per-state breakdown
"""

from __future__ import annotations

import logging

import numpy as np

from ..diagnostics.preflight import preflight_report
from ..errors import ReproError
from ..io.tables import format_table
from ..mft.engine import MftNoiseAnalyzer
from ..noise.brute_force import brute_force_psd
from ..noise.snr import integrated_noise_power, snr_db
from ..tolerances import DIRECT_SOLVE_COND_LIMIT, FLOQUET_MARGIN
from .spectrum import SpectrumComparison

logger = logging.getLogger(__name__)


def _system_of(model_or_system):
    if hasattr(model_or_system, "system"):
        return model_or_system.system, model_or_system
    if hasattr(model_or_system, "discretize"):
        return model_or_system, None
    raise ReproError(
        "expected a SwitchedCircuitModel or an LPTV system, got "
        f"{type(model_or_system).__name__}")


class NoiseAnalysis:
    """High-level noise analysis of a switched circuit.

    Accepts either a :class:`~repro.circuit.statespace.SwitchedCircuitModel`
    (netlist-based) or a bare LPTV system. All options after the model
    are strictly keyword-only (see DESIGN.md §9). Pass a
    :class:`~repro.obs.Recorder` as ``recorder=`` to trace every solve —
    the default is a shared no-op recorder costing one attribute check.
    ``context=`` (e.g. a fresh :class:`~repro.mft.context.SweepContext`
    for an analysis that shares nothing) fixes the discretization
    density for every sweep of the analysis.
    """

    def __init__(self, model_or_system, *, segments_per_phase=64,
                 output_row=0, preflight=True, fallback=True,
                 budget=None, context=None, recorder=None):
        self.system, self.model = _system_of(model_or_system)
        self.output_row = output_row
        self.engine = MftNoiseAnalyzer(
            self.system, segments_per_phase=segments_per_phase,
            output_row=output_row, preflight=preflight,
            fallback=fallback, budget=budget, context=context,
            recorder=recorder)
        # An explicit context= fixes the density; every engine — MFT,
        # corners, brute force — must sweep at the one the engine uses.
        self.segments_per_phase = self.engine.segments_per_phase
        if self.engine.preflight.has_warnings:
            logger.warning("preflight: %s",
                           self.engine.preflight.summary())

    # -- diagnostics ---------------------------------------------------------

    @property
    def preflight(self):
        """Preflight findings gathered at construction."""
        return self.engine.preflight

    @property
    def recorder(self):
        """The attached :class:`~repro.obs.Recorder` (no-op by default)."""
        return self.engine.recorder

    def trace_report(self, title="noise analysis trace"):
        """Rendered span tree of everything recorded so far."""
        return self.engine.trace_report(title=title)

    def trace_export(self):
        """JSON-ready dict of recorded spans, counters, histograms."""
        return self.engine.trace_export()

    def check(self, stability_margin=FLOQUET_MARGIN,
              condition_limit=DIRECT_SOLVE_COND_LIMIT):
        """Re-run preflight validation; returns the DiagnosticsReport.

        Unlike the construction-time preflight this never raises, so it
        can be used to inspect a system known to be marginal.
        """
        return preflight_report(self.engine._disc,
                                stability_margin=stability_margin,
                                condition_limit=condition_limit)

    # -- spectra -------------------------------------------------------------

    def psd(self, frequencies, on_failure="record", budget=None,
            solver=None, attribute_sources=False, **solver_options):
        """Averaged double-sided PSD of the selected output, in V²/Hz.

        ``solver`` picks the engine by name — ``"mft"`` (default),
        ``"spectral-batch"``, ``"brute-force"``, or ``"monte-carlo"`` —
        with identical result conventions; unknown names raise
        :class:`~repro.errors.ReproError` listing the choices.
        ``solver_options`` are forwarded to the delegate engines
        (e.g. ``tol_db=`` for brute force, ``n_trajectories=`` for
        Monte-Carlo; ``frequencies`` must be ``None`` for Monte-Carlo,
        which defines its own Welch grid).

        ``attribute_sources=True`` additionally decomposes the PSD per
        noise source (one extra linear solve per source against the same
        cached discretization) and attaches a
        :class:`~repro.metrics.ContributionBudget` at ``result.budget``
        whose rows sum to the unclipped total at every finite frequency;
        ``result.budget.to_table()`` renders the ranked breakdown.  When the
        analysis was built from a netlist-backed
        :class:`~repro.circuit.statespace.SwitchedCircuitModel`, the
        model's ``noise_labels`` name the rows; pass a list of labels to
        override.

        Per-frequency failures yield NaN plus records in
        ``result.info["failures"]`` (``on_failure="record"``, default)
        instead of aborting the sweep; the fallback chain and preflight
        findings are in ``result.info["diagnostics"]``.
        """
        return self.engine.psd(
            frequencies, on_failure=on_failure, budget=budget,
            solver=solver,
            attribute_sources=self._attribution_labels(attribute_sources),
            **solver_options)

    def psd_sweep(self, frequencies, parallel=None, max_workers=None,
                  chunk_size=None, budget=None, on_failure="record",
                  solver=None, attribute_sources=False, retry=None,
                  faults=None, checkpoint=None, **solver_options):
        """Same as :meth:`psd` but through a parallel sweep executor.

        Values are the same double-sided PSD samples in V²/Hz, merged
        back in frequency order.

        ``parallel="process"`` runs independent frequency chunks on
        ``max_workers`` worker processes with the same values, failure
        semantics, and diagnostics as :meth:`psd`; it isolates worker
        crashes, it does not speed a sweep up (:mod:`repro.mft.executor`).
        ``solver="spectral-batch"`` evaluates each chunk as one ω-block
        through the frequency-batched spectral kernel
        (:mod:`repro.mft.spectral`); the delegate solvers
        (``"brute-force"``, ``"monte-carlo"``) accept only
        ``parallel=None`` or ``"serial"``.

        ``attribute_sources`` works exactly as in :meth:`psd`
        (DESIGN.md §11): every chunk carries the per-source rows along
        with the total through the same retry/budget/fault machinery, so
        a failed frequency is NaN in the total *and* every budget row,
        and the merged :class:`~repro.metrics.ContributionBudget` is
        bit-identical between serial and process execution.

        Resilience knobs (DESIGN.md §10): ``retry`` sets the chunk
        retry/backoff/timeout policy
        (:class:`~repro.resilience.retry.RetryPolicy`), ``faults`` arms
        a deterministic fault-injection plan
        (:class:`~repro.resilience.faults.FaultPlan`), ``checkpoint``
        names a directory to persist completed chunks for bit-identical
        resume after an interruption.
        """
        return self.engine.psd_sweep(
            frequencies, parallel=parallel, max_workers=max_workers,
            chunk_size=chunk_size, budget=budget, on_failure=on_failure,
            solver=solver,
            attribute_sources=self._attribution_labels(attribute_sources),
            retry=retry, faults=faults, checkpoint=checkpoint,
            **solver_options)

    def psd_corners(self, grid, frequencies, parallel=None,
                    max_workers=None, chunk_size=None, budget=None,
                    on_failure="record", attribute_sources=False,
                    derive_intensity=True, retry=None, faults=None,
                    checkpoint=None):
        """PSD of every corner of a parameter grid in one batched sweep.

        ``grid`` is a :class:`~repro.circuits.corners.ParameterGrid`
        (explicit corners, a dynamics × intensity cross, or a seeded
        mismatch cloud); the result is a
        :class:`~repro.mft.corners.CornerSweepResult` whose
        ``values[m, k]`` is corner ``m``'s double-sided PSD at
        ``frequencies[k]`` — the same V²/Hz samples M independent
        :meth:`psd_sweep` calls would produce, computed through the
        parameter-batched spectral kernel (DESIGN.md §12): corners
        sharing dynamics share propagators, covariance bases, and
        per-frequency kernel work, and uniform intensity corners share
        a single kernel row.

        ``attribute_sources`` attaches one
        :class:`~repro.metrics.ContributionBudget` per corner at
        ``result.budgets[name]``.  ``derive_intensity=False`` rebuilds
        every intensity corner from its rescaled system instead of
        deriving it from the dynamics root (slower, but numerically
        identical to a by-hand rebuild).  The executor knobs
        (``parallel``/``budget``/``retry``/``faults``/``checkpoint``…)
        act on the flattened ``(frequency, corner)`` axis exactly as in
        :meth:`psd_sweep`.
        """
        from ..mft.corners import corner_psd_sweep

        target = self.model if self.model is not None else self.system
        return corner_psd_sweep(
            target, grid, frequencies, output_row=self.output_row,
            segments_per_phase=self.segments_per_phase,
            parallel=parallel, max_workers=max_workers,
            chunk_size=chunk_size, budget=budget, on_failure=on_failure,
            attribute_sources=self._attribution_labels(attribute_sources),
            derive_intensity=derive_intensity, retry=retry,
            faults=faults, checkpoint=checkpoint,
            recorder=self.engine.recorder)

    def _attribution_labels(self, attribute_sources):
        """Substitute the model's noise labels for a bare ``True``.

        A netlist-backed model knows its per-source names
        (``noise_labels``); a bare LPTV system does not, so ``True``
        passes through and the engine falls back to ``source[i]``.
        """
        if attribute_sources is True and self.model is not None:
            labels = getattr(self.model, "noise_labels", None)
            if labels:
                return list(labels)
        return attribute_sources

    def psd_brute_force(self, frequencies, tol_db=0.1, window_periods=5,
                        **kwargs):
        """Same quantity — double-sided V²/Hz — via the baseline
        transient engine (slow).

        Shares the engine's cached discretization (propagators, Van Loan
        Gramians) through its :class:`~repro.mft.context.SweepContext`.
        """
        kwargs.setdefault("context", self.engine.context)
        kwargs.setdefault("recorder", self.engine.recorder)
        return brute_force_psd(self.system, frequencies,
                               output_row=self.output_row,
                               segments_per_phase=self.segments_per_phase,
                               tol_db=tol_db,
                               window_periods=window_periods, **kwargs)

    def convergence_trace(self, frequency, tol_db=0.1, window_periods=5,
                          **kwargs):
        """PSD-vs-time trace at one frequency (paper Fig. 1)."""
        result = self.psd_brute_force([frequency], tol_db=tol_db,
                                      window_periods=window_periods,
                                      **kwargs)
        return result.info["details"][0].trace

    def instantaneous_psd(self, frequency):
        """``S(t, f)`` over one period of the steady state.

        Double-sided instantaneous PSD samples in V²/Hz.
        """
        return self.engine.instantaneous_psd(frequency)

    # -- scalar figures of merit ----------------------------------------------

    def output_variance(self):
        """Period-averaged output noise variance."""
        return self.engine.average_output_variance()

    def snr(self, signal_power, f_low=None, f_high=None,
            frequencies=None):
        """SNR from band-integrated PSD (or total variance).

        With ``frequencies`` given, the noise power is the integral of
        the double-sided PSD over the band (×2); otherwise the average
        output variance is used — the draft's Table I convention.
        """
        if frequencies is None:
            return snr_db(signal_power, self.output_variance())
        spectrum = self.psd(frequencies)
        return snr_db(signal_power,
                      integrated_noise_power(spectrum, f_low, f_high))

    # -- reports ---------------------------------------------------------------

    def contribution_report(self, frequency):
        """Per-state cross-spectral contribution table at one frequency.

        The rows sum (weighted by the output row) to the output PSD —
        the "relative contributions of various portions of the circuit"
        the paper advertises.
        """
        contributions = self.engine.cross_spectral_contributions(frequency)
        l_row = np.asarray(self.system.output_matrix)[self.output_row]
        rows = []
        total = float(l_row @ contributions)
        for name, value, weight in zip(self.system.state_names,
                                       contributions, l_row):
            share = (weight * value / total) if total != 0.0 else 0.0
            rows.append([name, value, weight, share])
        table = format_table(
            ["state", "cross-PSD [V^2/Hz]", "output weight", "share"],
            rows, title=f"Cross-spectral contributions at "
                        f"{frequency:.6g} Hz (total {total:.4g})")
        return table


def compare_spectra(frequencies, reference, candidate,
                    reference_name="reference",
                    candidate_name="candidate"):
    """Build a :class:`SpectrumComparison` from arrays or PsdResults."""
    ref = getattr(reference, "psd", reference)
    cand = getattr(candidate, "psd", candidate)
    return SpectrumComparison(
        frequencies=np.asarray(frequencies, dtype=float),
        reference=np.asarray(ref, dtype=float),
        candidate=np.asarray(cand, dtype=float),
        reference_name=reference_name, candidate_name=candidate_name)
