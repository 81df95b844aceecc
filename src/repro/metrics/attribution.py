"""Per-source noise contribution budgets.

The engines decompose an output PSD per noise-source column (the
``attribute_sources=`` flag on ``psd``/``psd_sweep``): every solve in
the decomposition is *linear* in its per-source forcing or Gramian, so
the per-source spectra sum to the total at every frequency to rounding.
:class:`ContributionBudget` carries that decomposition — the unclipped
per-source rows, the unclipped total, fractional contributions, a
ranked table — and exposes the conservation residual as a first-class
check (:meth:`ContributionBudget.conservation_error`), which the test
battery pins to :data:`~repro.tolerances.ATTRIBUTION_CONSERVATION_RTOL`
on every library circuit × solver.

NaN contract: a frequency that failed anywhere is NaN in the total
**and** in every per-source row — the constructor rejects budgets whose
NaN masks disagree, so a failure can never be silently dropped from one
side of the conservation identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ReproError
from ..io.tables import format_table
from ..tolerances import ATTRIBUTION_CONSERVATION_RTOL
from ..typing import BoolArray, FloatArray

__all__ = ["ContributionBudget"]


@dataclass
class ContributionBudget:
    """Per-source decomposition of one swept output PSD.

    All spectra are the library's canonical **double-sided** PSDs in
    V²/Hz.  ``contributions[s, k]`` is source ``s``'s PSD at
    ``frequencies[k]``; the rows are deliberately *unclipped* (as is
    :attr:`total`) so that ``contributions.sum(axis=0) == total`` holds
    to rounding — the clipped total lives on the owning
    :class:`~repro.noise.result.PsdResult`.
    """

    #: Swept frequency grid in Hz, shape ``(n_frequencies,)``.
    frequencies: FloatArray
    #: One label per noise-source column, length ``n_sources``.
    labels: list[str]
    #: Unclipped per-source PSDs, shape ``(n_sources, n_frequencies)``.
    contributions: FloatArray
    #: Unclipped total PSD, shape ``(n_frequencies,)``.
    total: FloatArray
    #: Name of the analysed output.
    output: str = ""
    #: Engine that produced the decomposition ("mft", "brute-force/...").
    method: str = ""
    #: Resolved solver name ("mft", "spectral-batch", "brute-force").
    solver: "str | None" = None
    #: Free-form metadata.
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.contributions = np.asarray(self.contributions, dtype=float)
        self.total = np.asarray(self.total, dtype=float)
        self.labels = [str(label) for label in self.labels]
        if self.frequencies.ndim != 1:
            raise ReproError(
                "frequencies must be 1-D, got shape "
                f"{self.frequencies.shape}")
        n_freq = self.frequencies.size
        if self.total.shape != (n_freq,):
            raise ReproError(
                f"total shape {self.total.shape} does not match "
                f"{n_freq} frequencies")
        if (self.contributions.ndim != 2
                or self.contributions.shape[1] != n_freq):
            raise ReproError(
                f"contributions shape {self.contributions.shape} must "
                f"be (n_sources, {n_freq})")
        if len(self.labels) != self.contributions.shape[0]:
            raise ReproError(
                f"{len(self.labels)} labels for "
                f"{self.contributions.shape[0]} source rows")
        total_nan = ~np.isfinite(self.total)
        rows_nan = np.any(~np.isfinite(self.contributions), axis=0)
        if np.any(total_nan != rows_nan):
            bad = np.nonzero(total_nan != rows_nan)[0]
            raise ReproError(
                "NaN masks of total and per-source rows disagree at "
                f"frequency indices {bad.tolist()[:8]}: a failed "
                "frequency must be NaN in both the total and every "
                "budget row (never dropped from one side)")

    # -- shape ---------------------------------------------------------------

    @property
    def n_sources(self) -> int:
        return int(self.contributions.shape[0])

    @property
    def n_frequencies(self) -> int:
        return int(self.frequencies.size)

    def ok_mask(self) -> BoolArray:
        """Finite-frequency mask, shared by total and every row."""
        return np.isfinite(self.total)

    # -- conservation --------------------------------------------------------

    def residual(self) -> FloatArray:
        """``Σ_s S_s(ω) − S_total(ω)`` per frequency (V²/Hz)."""
        return np.asarray(np.sum(self.contributions, axis=0)
                          - self.total)

    def conservation_error(self) -> float:
        """Scale-relative worst conservation residual.

        ``max|Σ_s S_s − S_total| / max|S_total|`` over the finite
        frequencies — the same scale-relative convention as the perf
        harness's ``max_relative_difference``, so one number gates both.
        Returns ``0.0`` when nothing is finite (an all-failed sweep
        conserves trivially).
        """
        mask = self.ok_mask()
        if not np.any(mask):
            return 0.0
        residual = np.abs(self.residual()[mask])
        scale = float(np.max(np.abs(self.total[mask])))
        if scale == 0.0:
            return float(np.max(residual))
        return float(np.max(residual) / scale)

    def check_conservation(
            self,
            rtol: float = ATTRIBUTION_CONSERVATION_RTOL) -> None:
        """Raise :class:`~repro.errors.ReproError` on a broken budget."""
        error = self.conservation_error()
        if not (error <= rtol):
            raise ReproError(
                f"contribution budget violates conservation: "
                f"scale-relative residual {error:.3g} exceeds {rtol:.3g} "
                f"({self.n_sources} sources, solver "
                f"{self.solver or self.method!r})")

    # -- fractions and ranking ----------------------------------------------

    def fractions(self) -> FloatArray:
        """Fractional contributions, shape ``(n_sources, n_frequencies)``.

        ``contributions / total`` where the total is finite and
        nonzero; NaN elsewhere.  Rows sum to 1 at every valid frequency
        (to rounding), including frequencies where individual unclipped
        rows dip slightly negative.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self.contributions / self.total[None, :]
        out = np.asarray(out, dtype=float)
        out[:, ~self.ok_mask() | (self.total == 0.0)] = np.nan
        return out

    def integrated(self, f_low: "float | None" = None,
                   f_high: "float | None" = None) -> FloatArray:
        """Per-source band noise powers (V²), shape ``(n_sources,)``.

        ``2 ∫ S_s(f) df`` over the finite frequencies restricted to
        ``[f_low, f_high]`` (the factor 2 for the double-sided
        spectrum's negative-frequency half).  NaN when fewer than two
        finite samples fall in the band.
        """
        mask = self.ok_mask()
        lo = (-np.inf if f_low is None else float(f_low))
        hi = (np.inf if f_high is None else float(f_high))
        mask = mask & (self.frequencies >= lo) & (self.frequencies <= hi)
        if int(np.sum(mask)) < 2:
            return np.full(self.n_sources, np.nan)
        fs = self.frequencies[mask]
        order = np.argsort(fs)
        return np.asarray(2.0 * np.trapezoid(
            self.contributions[:, mask][:, order], fs[order], axis=1))

    def ranked(self, f_low: "float | None" = None,
               f_high: "float | None" = None
               ) -> list[tuple[str, float, float]]:
        """``(label, band_power_v2, fraction)`` rows, dominant first.

        Ranked by band-integrated power; ``fraction`` is each source's
        share of the summed band powers (NaN when the band is
        degenerate).
        """
        powers = self.integrated(f_low, f_high)
        denominator = float(np.sum(powers))
        rows = []
        for s in np.argsort(powers)[::-1]:
            power = float(powers[s])
            fraction = (power / denominator
                        if np.isfinite(denominator) and denominator != 0.0
                        else float("nan"))
            rows.append((self.labels[int(s)], power, fraction))
        return rows

    def to_table(self, f_low: "float | None" = None,
                 f_high: "float | None" = None) -> str:
        """Fixed-width ranked contribution table (diff-friendly text)."""
        ranked = self.ranked(f_low, f_high)
        rows = [[rank + 1, label, power,
                 (f"{100.0 * fraction:.1f}%"
                  if np.isfinite(fraction) else "n/a")]
                for rank, (label, power, fraction) in enumerate(ranked)]
        title = (f"Noise contribution budget for {self.output or 'output'}"
                 f" ({self.n_sources} sources, "
                 f"solver {self.solver or self.method})")
        return format_table(
            ["rank", "source", "band power [V^2]", "share"], rows,
            title=title)

    # -- export --------------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        """JSON-ready payload; inverse is
        :func:`repro.results.from_payload`."""
        from ..results import to_payload
        return to_payload(self)

    def to_csv(self, path: Any) -> Any:
        """Write the per-frequency budget as CSV; returns the path.

        Delegates to :func:`repro.io.write_budget_csv` — one row per
        frequency with the double-sided V²/Hz total and one column per
        source.
        """
        from ..io import write_budget_csv
        return write_budget_csv(path, self)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (trace exports, bench artifacts)."""
        return {
            "output": self.output,
            "method": self.method,
            "solver": self.solver,
            "labels": list(self.labels),
            "frequencies": self.frequencies.tolist(),
            "total": self.total.tolist(),
            "contributions": self.contributions.tolist(),
            "conservation_error": self.conservation_error(),
        }
