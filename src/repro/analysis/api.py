"""The one-stop :class:`NoiseAnalysis`: the MFT analyzer plus the model.

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


class NoiseAnalysis(MftNoiseAnalyzer):
    """High-level noise analysis of a switched circuit.

    Accepts either a :class:`~repro.circuit.statespace.SwitchedCircuitModel`
    (netlist-based) or a bare LPTV system; everything else — ``psd``,
    ``psd_sweep``, tracing, preflight — is the
    :class:`~repro.mft.engine.MftNoiseAnalyzer` it extends, with the same
    keyword-only options (see DESIGN.md §9). What the circuit model adds:
    ``attribute_sources=True`` names the budget rows with the model's
    ``noise_labels``, corner sweeps rebuild from the model, and the
    reports below.
    """

    def __init__(self, model_or_system, *, segments_per_phase=64,
                 output_row=0, preflight=True, fallback=True,
                 budget=None, context=None, recorder=None):
        system, self.model = _system_of(model_or_system)
        super().__init__(
            system, segments_per_phase=segments_per_phase,
            output_row=output_row, preflight=preflight,
            fallback=fallback, budget=budget, context=context,
            recorder=recorder)
        if self.preflight.has_warnings:
            logger.warning("preflight: %s", self.preflight.summary())

    def _attribution_request(self, attribute_sources):
        """Substitute the model's noise labels for a bare ``True``.

        A netlist-backed model knows its per-source names
        (``noise_labels``); a bare LPTV system does not, so ``True``
        falls back to positional ``source<k>`` names.
        """
        if attribute_sources is True and self.model is not None:
            labels = getattr(self.model, "noise_labels", None)
            if labels:
                attribute_sources = list(labels)
        return super()._attribution_request(attribute_sources)

    def check(self, stability_margin=FLOQUET_MARGIN,
              condition_limit=DIRECT_SOLVE_COND_LIMIT):
        """Re-run preflight validation; returns the DiagnosticsReport.

        Unlike the construction-time preflight this never raises, so it
        can be used to inspect a system known to be marginal.
        """
        return preflight_report(self._disc,
                                stability_margin=stability_margin,
                                condition_limit=condition_limit)

    # -- spectra -------------------------------------------------------------

    def psd_corners(self, grid, frequencies, *, chunk_size=None,
                    budget=None, on_failure="record",
                    attribute_sources=False):
        """PSD of every corner of a parameter grid in one batched sweep.

        ``grid`` is a :class:`~repro.circuits.corners.ParameterGrid`
        (explicit corners, a dynamics × intensity cross, or a seeded
        mismatch cloud); the result is a
        :class:`~repro.mft.corners.CornerSweepResult` whose
        ``values[m, k]`` is corner ``m``'s double-sided PSD at
        ``frequencies[k]`` — the same V²/Hz samples M independent
        :meth:`psd_sweep` calls would produce, computed through the
        parameter-batched spectral kernel (DESIGN.md §12): corners
        sharing dynamics share one context (propagators, covariance,
        forcing) and one kernel call per ω-block, and a corner that
        differs only in noise intensity is a linear map of its root's
        total and per-source kernel rows, with no row of its own.

        ``attribute_sources`` attaches one
        :class:`~repro.metrics.ContributionBudget` per corner at
        ``result.budgets[name]``.  The executor knobs (``chunk_size``,
        ``budget``, ``on_failure``) act on the flattened
        ``(frequency, corner)`` axis exactly as in :meth:`psd_sweep`;
        ``chunk_size`` counts frequencies.  By default the sweep is one
        ω-block over the whole grid (split only when the kernel stack
        would exceed
        :data:`~repro.mft.executor.SPECTRAL_STACK_CAP_BYTES`), so the
        ``budget`` makes one decision, before the sweep starts.

        The analysis's own context is the override-free corners' dynamics
        root (``corner_psd_sweep(context=)``), so the base circuit is not
        discretized a second time; the other roots are private to the
        sweep unless registered under the grid's family hash.
        """
        from ..mft.corners import corner_psd_sweep

        target = self.model if self.model is not None else self.system
        return corner_psd_sweep(
            target, grid, frequencies, output_row=self.output_row,
            segments_per_phase=self.segments_per_phase,
            chunk_size=chunk_size, budget=budget, on_failure=on_failure,
            attribute_sources=self._attribution_request(attribute_sources),
            recorder=self.recorder, context=self._context)

    def convergence_trace(self, frequency, tol_db=0.1, window_periods=5,
                          **kwargs):
        """PSD-vs-time trace at one frequency (paper Fig. 1).

        Runs the brute-force transient engine on the analysis's own
        discretization; ``kwargs`` go to
        :func:`~repro.noise.brute_force.brute_force_psd`.
        """
        result = self.psd([frequency], solver="brute-force",
                          on_failure="raise", tol_db=tol_db,
                          window_periods=window_periods, **kwargs)
        return result.info["details"][0].trace

    # -- scalar figures of merit ----------------------------------------------

    def snr(self, signal_power, f_low=None, f_high=None,
            frequencies=None):
        """SNR from band-integrated PSD (or total variance).

        With ``frequencies`` given, the noise power is the integral of
        the double-sided PSD over the band (×2); otherwise the average
        output variance is used — the draft's Table I convention.
        """
        if frequencies is None:
            return snr_db(signal_power, self.average_output_variance())
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
        contributions = self.cross_spectral_contributions(frequency)
        rows = []
        total = float(self._l_row @ contributions)
        for name, value, weight in zip(self.system.state_names,
                                       contributions, self._l_row):
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
