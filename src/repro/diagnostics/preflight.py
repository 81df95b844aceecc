"""Preflight validation of a period discretization.

Run *before* any PSD computation, these checks catch the conditions under
which the MFT fixed point ``v(0) = (I − M)^{-1} g`` is fragile or
meaningless: a Floquet multiplier on/near the unit circle, an
ill-conditioned ``(I − M)``, an inconsistent clock schedule, or NaN/Inf
contamination in the discretized propagators. Findings are
severity-tagged so the engines can distinguish "abort" (ERROR) from
"proceed but watch the fallback chain" (WARNING).
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import ScheduleError, StabilityError
from ..linalg.checked import condition_number, eigenvalues
from ..tolerances import (
    DIRECT_SOLVE_COND_LIMIT,
    FLOQUET_MARGIN,
    SCHEDULE_TILE_RTOL,
)
from .report import DiagnosticsReport, Severity

logger = logging.getLogger(__name__)

#: Spectral radius closer to 1 than this margin is flagged as marginal.
DEFAULT_STABILITY_MARGIN = FLOQUET_MARGIN
#: cond(I − M) above this is flagged as ill-conditioned.
DEFAULT_CONDITION_LIMIT = DIRECT_SOLVE_COND_LIMIT
#: At most this many per-segment NaN/Inf findings are itemised.
_MAX_SEGMENT_FINDINGS = 8


def preflight_report(disc, stability_margin=DEFAULT_STABILITY_MARGIN,
                     condition_limit=DEFAULT_CONDITION_LIMIT):
    """Validate a :class:`~repro.lptv.discretization.PeriodDiscretization`.

    Returns a :class:`~repro.diagnostics.report.DiagnosticsReport`; never
    raises. Checks, in order:

    1. clock-schedule consistency (positive durations, no gaps, coverage
       of exactly one period);
    2. NaN/Inf in the per-segment propagators, Gramians and jump maps;
    3. Floquet stability: monodromy spectral radius vs 1 (ERROR when
       unstable, WARNING when within ``stability_margin`` of the unit
       circle);
    4. conditioning of the zero-frequency fixed-point matrix ``(I − M)``.

    Checks 3–4 are skipped when 2 finds non-finite propagators — the
    monodromy would be meaningless.
    """
    return run_preflight(disc, disc.monodromy, stability_margin,
                         condition_limit)


def run_preflight(disc, monodromy, stability_margin=DEFAULT_STABILITY_MARGIN,
                  condition_limit=DEFAULT_CONDITION_LIMIT):
    """:func:`preflight_report` with the period product supplied.

    ``monodromy`` is a zero-argument callable returning ``disc``'s
    one-period state transition matrix; it is called at most once, and
    only when every array is finite.  A
    :class:`~repro.mft.context.SweepContext` passes its cached
    monodromy, so the stability and conditioning checks and the solver
    share one product.
    """
    report = DiagnosticsReport(context="preflight")
    _check_schedule(disc, report)
    finite = _check_finite(disc, report)
    if finite:
        phi_t = monodromy()
        radius, multipliers = _check_stability(phi_t, report,
                                               stability_margin)
        if radius is not None and radius < 1.0:
            _check_conditioning(phi_t, report, condition_limit)
    else:
        report.warning(
            "stability-skipped",
            "stability and conditioning checks skipped: discretization "
            "contains non-finite propagators")
    if report.has_errors:
        logger.warning("preflight found errors: %s", report.summary())
    elif report.has_warnings:
        logger.info("preflight found warnings: %s", report.summary())
    else:
        logger.debug("preflight clean (%d segments, period %.3g s)",
                     disc.n_segments, disc.period)
    return report


def require_preflight(disc, stability_margin=DEFAULT_STABILITY_MARGIN,
                      condition_limit=DEFAULT_CONDITION_LIMIT):
    """Run :func:`preflight_report`; raise on ERROR-level findings.

    Unstable systems raise :class:`~repro.errors.StabilityError` (with
    the multipliers attached), schedule problems raise
    :class:`~repro.errors.ScheduleError`; both carry the full report on
    ``err.diagnostics``. Returns the report otherwise.
    """
    return raise_preflight_errors(
        preflight_report(disc, stability_margin, condition_limit))


def raise_preflight_errors(report):
    """Raise for a preflight ``report`` with ERROR findings, else return it.

    The exceptions are those of :func:`require_preflight`.
    """
    if not report.has_errors:
        return report
    unstable = report.by_code("floquet-unstable")
    if unstable:
        data = unstable[0].data
        raise StabilityError(
            unstable[0].message,
            multipliers=data.get("multipliers"),
            spectral_radius=data.get("spectral_radius"),
        ).attach_diagnostics(report)
    schedule = [f for f in report.at_least(Severity.ERROR)
                if f.code.startswith("schedule")]
    if schedule:
        raise ScheduleError(schedule[0].message).attach_diagnostics(report)
    first = report.at_least(Severity.ERROR)[0]
    raise ScheduleError(
        f"preflight failed: {first}").attach_diagnostics(report)


def _check_schedule(disc, report):
    """Flag non-positive durations, gaps and a short or long coverage.

    One vectorized pass over the segment times; the findings are
    itemized per segment, in segment order, only when one fails.
    """
    period = float(disc.period)
    if period <= 0.0:
        report.error("schedule-period",
                     f"period must be positive, got {period}",
                     period=period)
        return
    tol = SCHEDULE_TILE_RTOL * max(period, 1.0)
    durations = disc.durations
    expected = np.concatenate(([0.0], disc.t_end[:-1]))
    short = durations <= 0.0
    gap = np.abs(disc.t_start - expected) > tol
    for k in np.flatnonzero(short | gap).tolist():
        name = _phase_name(disc, k)
        if short[k]:
            report.error(
                "schedule-duration",
                f"segment {k} ({name!r}) has non-positive "
                f"duration {durations[k]:.6g}",
                segment=k, duration=float(durations[k]))
        if gap[k]:
            t_start = float(disc.t_start[k])
            report.error(
                "schedule-gap",
                f"segment chain has a gap/overlap at t={t_start:.6g} "
                f"(expected {expected[k]:.6g})",
                segment=k, t_start=t_start, expected=float(expected[k]))
    covered = float(disc.t_end[-1])
    if abs(covered - period) > tol:
        report.error(
            "schedule-coverage",
            f"segments cover [0, {covered:.6g}] but the period is "
            f"{period:.6g}",
            covered=covered, period=period)


def _phase_name(disc, k):
    """The phase name of segment ``k``."""
    return next(run.phase_name for run in disc.runs if k < run.stop)


def _run_parts(run):
    """``(name, array, last_only)`` triples preflight scans for one run.

    In per-segment order; ``last_only`` marks the jump, which only the
    run's last segment carries.
    """
    parts = [("propagator", run.phi, False), ("gramian", run.gramian, False)]
    if run.jump is not None:
        parts.append(("jump", run.jump, True))
    if run.a_matrix is not None:
        parts.append(("a-matrix", run.a_matrix, False))
    return parts


def _check_finite(disc, report):
    """Flag NaN/Inf in propagators/Gramians/jumps; True when all finite.

    Each distinct array of the runs (by identity) is scanned once; only
    when one is non-finite are the findings itemized per segment.
    """
    arrays = {id(mat): mat for run in disc.runs
              for _name, mat, _last in _run_parts(run)}
    finite = {key: bool(np.all(np.isfinite(mat)))
              for key, mat in arrays.items()}
    if all(finite.values()):
        return True
    bad = [(k, name, run.phase_name) for run in disc.runs
           for k in range(run.start, run.stop)
           for name, mat, last in _run_parts(run)
           if not finite[id(mat)] and (k == run.stop - 1 or not last)]
    for k, name, phase_name in bad[:_MAX_SEGMENT_FINDINGS]:
        report.error(
            "non-finite-propagator",
            f"segment {k} ({phase_name!r}) has non-finite entries in "
            f"its {name}",
            segment=k, part=name)
    if len(bad) > _MAX_SEGMENT_FINDINGS:
        report.error(
            "non-finite-propagator",
            f"... and {len(bad) - _MAX_SEGMENT_FINDINGS} further "
            "segments with non-finite entries",
            suppressed=len(bad) - _MAX_SEGMENT_FINDINGS)
    return False


def _check_stability(phi_t, report, stability_margin):
    multipliers = eigenvalues(phi_t, context="preflight stability check")
    multipliers = multipliers[np.argsort(-np.abs(multipliers))]
    radius = float(np.max(np.abs(multipliers))) if multipliers.size else 0.0
    mult_list = [complex(m) for m in multipliers]
    if radius >= 1.0:
        report.error(
            "floquet-unstable",
            f"periodic system is unstable: monodromy spectral radius "
            f"{radius:.6g} >= 1",
            spectral_radius=radius, multipliers=mult_list)
    elif radius >= 1.0 - stability_margin:
        report.warning(
            "floquet-margin",
            f"Floquet multiplier within {stability_margin:.3g} of the "
            f"unit circle (spectral radius {radius:.8g}): the periodic "
            "solve is fragile; expect fallback activity",
            spectral_radius=radius, multipliers=mult_list,
            margin=float(1.0 - radius))
    else:
        report.info(
            "floquet-stable",
            f"monodromy spectral radius {radius:.6g} "
            f"(margin {1.0 - radius:.3g})",
            spectral_radius=radius, multipliers=mult_list)
    return radius, multipliers


def _check_conditioning(phi_t, report, condition_limit):
    n = phi_t.shape[0]
    system = np.eye(n) - phi_t
    cond = condition_number(system)
    if not np.isfinite(cond):
        report.error(
            "fixed-point-singular",
            "(I - M) is numerically singular at omega = 0: a Floquet "
            "multiplier sits at exactly 1",
            condition=cond)
    elif cond > condition_limit:
        report.warning(
            "fixed-point-conditioning",
            f"cond(I - M) = {cond:.3g} exceeds {condition_limit:.3g} at "
            "omega = 0; the periodic fixed point loses "
            f"~{np.log10(cond):.0f} digits",
            condition=cond, limit=float(condition_limit))
    else:
        report.info(
            "fixed-point-conditioning",
            f"cond(I - M) = {cond:.3g} at omega = 0",
            condition=cond)
    return cond
