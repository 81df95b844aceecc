"""Two-tone MFT steady-state PSD engine.

For the output ``y = l^T x`` of the LPTV SDE, the cross-spectral vector
``K'(t) = E{x(t) Y(t,ω)^*}`` obeys ``dK'/dt = A K' + K(t) l e^{jωt}``
(companion draft eq. (13), generalised from one node to a linear output).
Substituting ``K' = q e^{jωt}`` removes the fast/slow two-tone structure
exactly::

    dq/dt = (A(t) − jωI) q + K(t) l

with everything on the right T-periodic. The averaged PSD is then

    S̄(ω) = (2/T) ∫_0^T Re( l^T q(t) ) dt

and the instantaneous PSD ``S(t, ω) = 2 Re(l^T q(t))``.

This module wires those three steps to the shared machinery: a
:class:`~repro.mft.context.SweepContext` supplies ``K`` and the forcing
and solves for ``q``, and a trapezoidal quadrature gives the average.
Runtime bookkeeping is kept so the speedup benchmarks can compare
against the brute-force engine.

Performance: the context holds every frequency-independent quantity —
discretization, periodic covariance, forcing, monodromy, the phases'
power stacks — so each frequency costs one grouped periodic solve. The
analyzer owns a private context, built at construction, unless it is
passed one as ``context=``; it never reads or fills the module registry
of :func:`~repro.mft.context.sweep_context_for`. Every sweep —
:meth:`MftNoiseAnalyzer.psd` is ``psd_sweep`` at the default chunk
size — is :func:`~repro.mft.executor.run_sweep` over one dynamics root,
the analyzer itself (:meth:`~repro.mft.corners.RootMap.single`): the
same chunk loop and result path a corner sweep runs over its roots.

Robustness: the analyzer preflight-validates the discretization at
construction (Floquet margin, ``cond(I − M)``, schedule, NaN/Inf) and
:meth:`MftNoiseAnalyzer.psd` runs each frequency through the bounded
graceful-degradation chain of :mod:`repro.diagnostics.fallback` — direct
solve, regularized least squares, brute-force transient — recording
every attempt in ``PsdResult.info["diagnostics"]``. A failed frequency
yields NaN plus a failure record instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diagnostics.fallback import FallbackPolicy
from ..diagnostics.preflight import raise_preflight_errors
from ..diagnostics.report import DiagnosticsReport
from ..errors import ReproError, UnexpectedOptionError
from ..noise.solvers import resolve_solver
from ..obs import NULL_RECORDER, format_trace
from ..tolerances import FIXED_POINT_RIDGE
from .context import SweepContext, psd_rows


@dataclass
class InstantaneousPsd:
    """Instantaneous PSD ``S(t, f)`` over one period at one frequency."""

    times: np.ndarray
    values: np.ndarray
    frequency: float

    def average(self):
        period = self.times[-1] - self.times[0]
        return float(np.trapezoid(self.values, self.times) / period)


class MftNoiseAnalyzer:
    """Steady-state noise analysis of a switched (LPTV) system.

    Parameters
    ----------
    system:
        A :class:`~repro.lptv.system.PiecewiseLTISystem` or
        :class:`~repro.lptv.system.SampledLPTVSystem`.
    segments_per_phase:
        Discretization density; for piecewise-LTI systems this only
        affects the cross-spectral quadrature grid (the propagators are
        exact). For sampled systems it also controls propagator accuracy.
    output_row:
        Row of the system's output matrix to analyse.
    preflight:
        Validate the discretization at construction. ERROR-level findings
        raise immediately (:class:`~repro.errors.StabilityError` for an
        unstable system, with the multipliers attached); warnings are
        kept on :attr:`preflight` and attached to every sweep result.
        The report is the context's, computed once per context.
    fallback:
        ``True``/``None`` enables the graceful-degradation chain with
        default :class:`~repro.diagnostics.fallback.FallbackPolicy`
        settings, ``False`` disables it, and a ``FallbackPolicy``
        instance tunes it.
    budget:
        Default :class:`~repro.diagnostics.budget.SweepBudget` (or
        wall-clock seconds) applied to every :meth:`psd` sweep.
    context:
        The :class:`~repro.mft.context.SweepContext` every solve draws
        from (its ``segments_per_phase`` takes precedence). Defaults to
        a private ``SweepContext(system, segments_per_phase)`` that
        lives as long as the analyzer and shares nothing with other
        analyses. A passed context lets several engines — MFT, brute
        force, Monte Carlo — or analyses share one set of propagators
        and one covariance solve.
    recorder:
        An :class:`~repro.obs.Recorder` collecting spans and metrics
        from every stage of the analysis (default: the shared no-op
        recorder — tracing off, one attribute check per stage).

    All parameters after ``system`` are strictly keyword-only
    (see DESIGN.md §9).

    The analyzer reads its discretization through the context, on
    first use.  Preflight raises on the context's cached report
    (:attr:`~repro.mft.context.SweepContext.preflight`).
    """

    def __init__(self, system, *, segments_per_phase=64,
                 output_row=0, preflight=True, fallback=True,
                 budget=None, context=None, recorder=None):
        if not hasattr(system, "discretize") or not hasattr(
                system, "output_matrix"):
            raise ReproError(
                "system must be an LPTV system (discretize() and "
                f"output_matrix), got {type(system).__name__}")
        self.system = system
        self.output_row = output_row
        if recorder is None:
            recorder = NULL_RECORDER
        elif not (hasattr(recorder, "span") and hasattr(recorder, "count")):
            raise ReproError(
                "recorder must be a repro.obs.Recorder (or None), got "
                f"{type(recorder).__name__}")
        self.recorder = recorder
        self._l_row = np.asarray(system.output_matrix)[output_row].astype(
            float)
        if context is None:
            context = SweepContext(system, segments_per_phase)
        elif not isinstance(context, SweepContext):
            raise ReproError(
                "context must be a SweepContext, got "
                f"{type(context).__name__}")
        self._context = context
        self.segments_per_phase = context.segments_per_phase
        if fallback is True or fallback is None:
            self.fallback = FallbackPolicy()
        elif fallback is False:
            self.fallback = None
        else:
            self.fallback = fallback
        self.budget = budget
        if preflight:
            with self.recorder.span("mft.preflight"):
                self.preflight = raise_preflight_errors(
                    self._context.preflight)
        else:
            self.preflight = DiagnosticsReport(context="preflight skipped")

    # -- cache plumbing ------------------------------------------------------

    @property
    def _disc(self):
        """The context's discretization, built on first read."""
        return self._context.disc

    @property
    def context(self):
        """The :class:`SweepContext` every solve draws from."""
        return self._context

    def warm_up(self, sources=False):
        """Materialise every frequency-independent cached quantity.

        Called by :func:`~repro.mft.executor.run_sweep` before the first
        chunk, inside the ``mft.warmup`` span.  For an attributed sweep
        (``sources=True``) the per-source covariances and forcing pairs
        are included — they are frequency-independent too.
        """
        self._context.warm_up(self._l_row, sources=sources)
        self._forcing_pairs()
        return self

    # -- per-source attribution ---------------------------------------------

    def _attribution_request(self, attribute_sources):
        """The attribution request: a tuple of row labels, or ``None``.

        ``attribute_sources`` falsy means no attribution; ``True`` falls
        back to positional ``source<k>`` names; a sequence must name
        every noise column of the system.
        """
        if not attribute_sources:
            return None
        n_src = self._context.n_sources
        if attribute_sources is True:
            return tuple(f"source{k}" for k in range(n_src))
        labels = tuple(str(label) for label in attribute_sources)
        if len(labels) != n_src:
            raise ReproError(
                f"attribute_sources names {len(labels)} sources but the "
                f"system has {n_src} noise columns")
        return labels

    # -- covariance ---------------------------------------------------------

    @property
    def covariance(self):
        """Periodic steady-state covariance (computed once, cached)."""
        return self._context.covariance

    def average_output_variance(self):
        """Period-averaged variance of the analysed output."""
        return self.covariance.average_output_variance(self._l_row)

    # -- PSD ----------------------------------------------------------------

    def _forcing_pairs(self):
        return self._context.forcing_pairs(self._l_row)

    def _solve(self, omega, forcing, solver="direct",
               ridge=FIXED_POINT_RIDGE, condition_limit=None):
        """Periodic steady state of the shifted dynamics at one ω.

        ``forcing`` is the total's ``(S, 2, n)`` pairs or a stacked
        ``(R, S, 2, n)`` forcing such as the context's
        :meth:`~repro.mft.context.SweepContext.forcing_stack` (see
        :meth:`~repro.mft.context.SweepContext.solve_shifted`).  Every
        per-ω solve of this analyzer goes through here.
        """
        return self._context.solve_shifted(
            omega, forcing, solver=solver, ridge=ridge,
            condition_limit=condition_limit)

    def _psd_at(self, frequency, sources=False, solver="direct",
                ridge=FIXED_POINT_RIDGE, condition_limit=None):
        """Single-frequency solve with explicit solver controls.

        A float, or with ``sources`` the ``[total, source…]`` vector:
        every row comes from one stacked solve of the context's
        :meth:`~repro.mft.context.SweepContext.forcing_stack`, so the
        total is bit for bit the unattributed value and the sources sum
        to it by linearity of the periodic solve in its forcing.
        """
        omega = 2.0 * np.pi * float(frequency)
        solution = self._solve(
            omega, self._context.forcing_stack(self._l_row, sources),
            solver=solver, ridge=ridge, condition_limit=condition_limit)
        rows = psd_rows(solution.integral[:, None], self._l_row,
                        self._disc.period)[:, 0]
        return rows if sources else float(rows[0])

    def psd_at(self, frequency):
        """Averaged double-sided PSD (V²/Hz) at one frequency [Hz].

        This is the raw direct solve — it raises on failure. Sweeps that
        should survive per-frequency failures go through :meth:`psd`.
        """
        with self.recorder.span("mft.solve", frequency=float(frequency)):
            return self._psd_at(frequency)

    def psd_sweep(self, frequencies, *, chunk_size=None, budget=None,
                  on_failure="record", solver=None, attribute_sources=False,
                  **solver_options):
        """Averaged double-sided PSD (V²/Hz) over a frequency grid.

        Returns a :class:`~repro.noise.result.PsdResult`. The sweep is
        :func:`~repro.mft.executor.run_sweep` with this analyzer as its
        one dynamics root: a serial loop over chunks of ``chunk_size``
        frequencies, so results carry ``info["executor"]``. Per-frequency values, NaN semantics,
        failure records and diagnostics do not depend on ``chunk_size``.
        :meth:`psd` is this method at the default chunk size.

        The default ``chunk_size`` is 8 for the per-frequency sweep.  A
        ``"spectral-batch"`` sweep defaults to one ω-block over the
        whole grid, split only when the kernel's step-forcing stack
        would exceed
        :data:`~repro.mft.executor.SPECTRAL_STACK_CAP_BYTES` — so its
        budget makes one decision, before the sweep starts.  Pass an
        explicit ``chunk_size`` for finer budget granularity.

        ``solver`` picks the engine by name
        (:data:`repro.noise.solvers.SOLVERS`):

        * ``"mft"`` (default, also reachable as ``None``) — the
          per-frequency fallback-chain sweep;
        * ``"spectral-batch"`` — each chunk becomes one ω-block through
          the frequency-batched spectral kernel
          (:mod:`repro.mft.spectral`): the reference's step integrals
          stacked per segment group, all frequencies of the block at
          once.  Values agree with the per-ω path to ≤ 1e-9 relative
          with identical NaN masks and failure records;
        * ``"brute-force"`` / ``"monte-carlo"`` — delegate to the
          baseline engines (extra ``solver_options`` are forwarded).
          The Monte-Carlo solver defines its own Welch frequency grid,
          so it requires ``frequencies=None``.

        ``attribute_sources`` — ``True`` or a sequence of per-source
        labels — additionally decomposes the PSD per noise-source
        column: the result carries a
        :class:`~repro.metrics.ContributionBudget` in
        ``result.info["budget"]`` (also via ``result.budget``) whose
        per-source rows sum to the total PSD at every frequency (NaN
        where the total is NaN — never dropped from one side only; the
        sweep merges the widened per-chunk values, so a NaN'd chunk is
        NaN in both the total and every budget row).
        Attribution reuses the shared sweep context (covariance basis,
        propagators), and every supported solver — ``mft``,
        ``spectral-batch``, ``brute-force`` — solves the per-source
        forcings as more rows of the total's one solve
        (:meth:`~repro.mft.context.SweepContext.forcing_stack`): one
        stacked periodic solve per frequency (one LU with
        ``1 + n_sources`` right-hand sides), one kernel call per
        ω-block, or one transient per frequency.  The extra rows cost
        array work, not ``n_sources`` more solves, and leave the total
        bit-identical to an unattributed sweep.

        Each frequency runs through the graceful-degradation chain (when
        :attr:`fallback` is enabled). With ``on_failure="record"`` (the
        default) a frequency whose every strategy fails contributes NaN
        and a :class:`~repro.diagnostics.report.FrequencyFailure` in
        ``info["failures"]`` — the sweep itself always completes;
        ``on_failure="raise"`` aborts on the first exhausted chain. A
        ``budget`` (or the analyzer default) gates the *dispatch* of
        each chunk: once spent, the remaining chunks become
        ``budget``-stage failures, while a chunk already running
        finishes and runs unbudgeted (a brute-force fallback inside it
        is bounded by its ``max_periods``, not by the sweep clock). See
        :mod:`repro.mft.executor`.
        """
        solver = resolve_solver(solver)
        if solver in ("brute-force", "monte-carlo"):
            return self._delegate_solver(solver, frequencies,
                                         budget=budget,
                                         on_failure=on_failure,
                                         attribute_sources=attribute_sources,
                                         **solver_options)
        if solver_options:
            raise UnexpectedOptionError(
                f"solver {solver!r} accepts no extra solver options, "
                f"got {sorted(solver_options)}")
        from .corners import RootMap
        from .executor import run_sweep
        return run_sweep(
            [RootMap.single(self)], frequencies, solver=solver,
            chunk_size=chunk_size,
            budget=budget if budget is not None else self.budget,
            on_failure=on_failure,
            labels=self._attribution_request(attribute_sources))

    psd = psd_sweep

    def _delegate_solver(self, solver, frequencies, budget=None,
                         on_failure="record", attribute_sources=False,
                         **solver_options):
        """Route ``solver="brute-force"|"monte-carlo"`` to the baselines.

        The delegation forwards the analyzer's own output row, shared
        sweep context, recorder, and (resolved) budget, so
        ``psd(..., solver="brute-force")`` computes exactly what the
        free function :func:`repro.noise.brute_force.brute_force_psd`
        does with the same inputs.
        """
        budget = budget if budget is not None else self.budget
        if solver == "brute-force":
            from ..noise.brute_force import brute_force_rows
            from .executor import rows_budget
            kwargs = dict(solver_options)
            kwargs.setdefault("context", self._context)
            labels = self._attribution_request(attribute_sources)
            result, rows = brute_force_rows(
                self.system, frequencies, sources=labels is not None,
                output_row=self.output_row, on_failure=on_failure,
                budget=budget, recorder=self.recorder, **kwargs)
            result.info["budget"] = None if labels is None else rows_budget(
                self.recorder, result.frequencies, labels, rows,
                result.output, result.method, "brute-force")
            return result
        # A sampled estimator records no per-frequency failures, so
        # on_failure is only validated here.
        from .executor import check_on_failure
        check_on_failure(on_failure)
        if attribute_sources:
            raise ReproError(
                "attribute_sources= is not supported for "
                "solver='monte-carlo' (a sampled estimator cannot "
                "guarantee the conservation contract); use 'mft', "
                "'spectral-batch', or 'brute-force'")
        from ..baselines.montecarlo import monte_carlo_psd
        if frequencies is not None:
            raise ReproError(
                "solver='monte-carlo' estimates the PSD on its own Welch "
                "frequency grid (f_clk / segment_periods resolution); "
                "pass frequencies=None and read result.frequencies")
        # The engine's context is NOT forwarded by default: Monte-Carlo
        # spectral estimation needs a *uniform* sampling grid, which the
        # boundary-layer-graded deterministic discretization usually is
        # not. Pass context= in solver_options to share one explicitly.
        mc = monte_carlo_psd(self.system, output_row=self.output_row,
                             budget=budget, recorder=self.recorder,
                             **solver_options)
        result = mc.psd
        result.info["standard_error"] = mc.standard_error
        result.info["n_periods"] = mc.n_periods
        return result

    # -- tracing --------------------------------------------------------------

    def trace_report(self, title="mft trace"):
        """Tree-formatted table of every span the recorder holds.

        Needs an enabled :class:`~repro.obs.Recorder` passed at
        construction; with the default no-op recorder the report says
        so instead of raising.
        """
        if not self.recorder.enabled:
            return (f"{title}\n(tracing disabled — construct the "
                    "analyzer with recorder=Recorder() to collect spans)")
        return format_trace(self.recorder, title=title)

    def trace_export(self):
        """JSON-friendly dump of the recorder's spans and metrics."""
        return self.recorder.export()

    # -- fallback machinery -------------------------------------------------

    def _strategies(self, frequency, labels=None):
        """Ordered (name, thunk) solve strategies for one frequency.

        For an attribution request (``labels`` not ``None``) every
        strategy returns the ``[total, source…]`` vector instead of a
        scalar — the whole vector comes from one stacked solve at one
        discretization, so a fallback never mixes solver settings
        between the total and the budget rows (which would break
        conservation).
        """
        sources = labels is not None
        policy = self.fallback
        if policy is None:
            return [("mft-direct",
                     lambda: self._psd_at(frequency, sources=sources))]
        strategies = [("mft-direct", lambda: self._psd_at(
            frequency, sources=sources,
            condition_limit=policy.condition_limit))]
        if policy.enable_regularized:
            strategies.append(("mft-regularized", lambda: self._psd_at(
                frequency, sources=sources, solver="lstsq",
                ridge=policy.regularization)))
        if policy.enable_brute_force:
            strategies.append(("brute-force", lambda: self._brute_force_at(
                frequency, policy, sources)))
        return strategies

    def _brute_force_at(self, frequency, policy, sources):
        """Terminal fallback: the transient engine at one frequency.

        Runs unbudgeted — the sweep budget gates chunk dispatch, and
        ``max_periods`` bounds the transient.  With ``sources`` the one
        transient carries the ``[total, source…]`` drive stack and
        returns its rows (see
        :func:`repro.noise.brute_force.brute_force_rows`).
        """
        from ..noise.brute_force import brute_force_rows
        kwargs = dict(policy.brute_force_kwargs)
        density = kwargs.setdefault("segments_per_phase",
                                    self._context.segments_per_phase)
        if "context" not in kwargs and np.array_equal(
                density, self._context.segments_per_phase):
            kwargs["context"] = self._context
        rows = brute_force_rows(
            self.system, [frequency], sources=sources,
            output_row=self.output_row, recorder=self.recorder,
            **kwargs)[1][0]
        return rows if sources else float(rows[0])

    # -- other observables --------------------------------------------------

    def instantaneous_psd(self, frequency):
        """``S(t, f)`` over one steady-state period at one frequency.

        Double-sided instantaneous PSD samples in V²/Hz."""
        omega = 2.0 * np.pi * float(frequency)
        solution = self._solve(omega, self._forcing_pairs())
        values = 2.0 * np.real(solution.post @ self._l_row)
        return InstantaneousPsd(times=solution.grid.copy(), values=values,
                                frequency=float(frequency))

    def cross_spectral_contributions(self, frequency):
        """Period-averaged ``2 Re(q_i)`` per state at one frequency.

        The draft highlights that the method exposes "the relative
        contributions of various portions of the circuit": the i-th entry
        is the cross-spectral density between state ``i`` and the output.
        The entries weighted by ``l`` sum to the output PSD.
        """
        omega = 2.0 * np.pi * float(frequency)
        solution = self._solve(omega, self._forcing_pairs())
        integral = solution.integrate_dot()
        return 2.0 * np.real(integral) / self._disc.period

    def _output_name(self):
        names = getattr(self.system, "output_names", None)
        if names:
            return names[self.output_row]
        return f"row{self.output_row}"


__all__ = ["InstantaneousPsd", "MftNoiseAnalyzer"]
