"""Spectrum and convergence containers shared by every noise engine."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ReproError
from ..typing import ArrayLike, BoolArray, FloatArray
from ..units import db10


@dataclass
class PsdResult:
    """A sampled power spectral density.

    All PSDs in this library are **double-sided** in V²/Hz (or A²/Hz);
    use :meth:`single_sided` for the 2× single-sided convention common in
    measurement plots, and :meth:`db` for dB values.
    """

    frequencies: np.ndarray
    psd: np.ndarray
    #: Engine that produced the spectrum ("mft", "brute-force", ...).
    method: str = ""
    #: Name of the observed output.
    output: str = ""
    #: Free-form engine metadata (runtimes, cycle counts, grid sizes).
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if self.frequencies.shape != self.psd.shape:
            raise ReproError(
                f"frequency grid {self.frequencies.shape} does not match "
                f"PSD samples {self.psd.shape}")

    # -- diagnostics / partial-failure accessors ---------------------------

    @property
    def diagnostics(self) -> Any:
        """The engine's :class:`~repro.diagnostics.report.DiagnosticsReport`.

        ``None`` for results built without one (hand-made arrays).
        """
        return self.info.get("diagnostics")

    @property
    def failures(self) -> list:
        """Per-frequency failure records (empty list when clean)."""
        return self.info.get("failures", [])

    @property
    def budget(self) -> Any:
        """The :class:`~repro.metrics.ContributionBudget` of the sweep.

        Populated when the sweep ran with ``attribute_sources=``;
        ``None`` otherwise.
        """
        return self.info.get("budget")

    def ok_mask(self) -> BoolArray:
        """Boolean mask (same shape as ``psd``) of finite PSD samples."""
        return np.isfinite(self.psd)

    @property
    def n_failed(self) -> int:
        """Number of swept frequencies that produced no PSD value."""
        return int(np.sum(~self.ok_mask()))

    def successful(self) -> tuple[FloatArray, FloatArray]:
        """``(frequencies, psd)`` restricted to the finite samples."""
        mask = self.ok_mask()
        return self.frequencies[mask], self.psd[mask]

    def single_sided(self) -> FloatArray:
        """Single-sided PSD values (2× double-sided)."""
        return 2.0 * self.psd

    def db(self, single_sided: bool = False) -> FloatArray:
        """PSD in dB relative to 1 V²/Hz, same shape as ``psd``.

        ``single_sided=True`` applies the 2x single-sided convention
        first; the default is the library's double-sided convention.
        """
        values = self.single_sided() if single_sided else self.psd
        return np.asarray([db10(max(v, 0.0)) for v in values])

    def at(self, frequency: float) -> float:
        """Log-linear interpolation of the PSD at one frequency."""
        f = float(frequency)
        if not (self.frequencies.min() <= f <= self.frequencies.max()):
            raise ReproError(
                f"frequency {f} outside sampled range "
                f"[{self.frequencies.min()}, {self.frequencies.max()}]")
        return float(np.interp(f, self.frequencies, self.psd))

    def integrated_power(self, f_low: float | None = None,
                         f_high: float | None = None) -> float:
        """Trapezoidal integral of the double-sided PSD over [f_low, f_high].

        For a symmetric double-sided spectrum sampled on positive
        frequencies this equals *half* the total power in the band; the
        band-power helpers in :mod:`repro.noise.snr` apply the factor 2.
        """
        f = self.frequencies
        p = self.psd
        lo = f.min() if f_low is None else float(f_low)
        hi = f.max() if f_high is None else float(f_high)
        if hi <= lo:
            raise ReproError(f"empty frequency band [{lo}, {hi}]")
        if lo < f.min() or hi > f.max():
            raise ReproError(
                f"band [{lo}, {hi}] extends outside the sampled range "
                f"[{f.min()}, {f.max()}]; a PSD cannot be extrapolated "
                "(np.interp would silently clamp the edge values)")
        mask = (f >= lo) & (f <= hi)
        fs = f[mask]
        ps = p[mask]
        # Include exact band edges by interpolation.
        if fs.size == 0 or fs[0] > lo:
            fs = np.insert(fs, 0, lo)
            ps = np.insert(ps, 0, np.interp(lo, f, p))
        if fs[-1] < hi:
            fs = np.append(fs, hi)
            ps = np.append(ps, np.interp(hi, f, p))
        return float(np.trapezoid(ps, fs))

    # -- repro.results export protocol -------------------------------------

    def to_table(self, limit: int | None = None) -> str:
        """Fixed-width table of the spectrum (double-sided V²/Hz).

        One row per sampled frequency: the PSD value, its dB form, and
        an ``ok`` column flagging failed (NaN) samples.  ``limit`` caps
        the number of rows (evenly subsampled); the footer then notes
        how many rows were elided.
        """
        from ..io import format_table
        n = self.frequencies.size
        indices = np.arange(n)
        if limit is not None and 0 < limit < n:
            indices = np.unique(np.linspace(
                0, n - 1, int(limit)).round().astype(int))
        rows = []
        for i in indices:
            value = float(self.psd[i])
            ok = bool(np.isfinite(value))
            rows.append([f"{self.frequencies[i]:.6g}",
                         f"{value:.6g}" if ok else "nan",
                         f"{db10(max(value, 0.0)):.2f}" if ok and value > 0
                         else ("-inf" if ok else "nan"),
                         "yes" if ok else "FAILED"])
        title = f"PSD [{self.method or 'unknown'}]"
        if self.output:
            title += f" output={self.output}"
        table = format_table(
            ["frequency_hz", "psd_v2_per_hz", "db", "ok"], rows,
            title=title)
        if len(indices) < n:
            table += f"\n({n - len(indices)} of {n} rows elided)"
        return table

    def to_json(self) -> dict[str, Any]:
        """JSON-ready payload; inverse is :func:`repro.results.from_payload`.

        Failures, diagnostics, and attribution budgets survive the
        round trip; PSD samples stay double-sided V²/Hz.
        """
        from ..results import to_payload
        return to_payload(self)

    def to_csv(self, path: Any) -> Any:
        """Write the spectrum as CSV (double-sided V²/Hz); returns the path."""
        from ..io import write_psd_csv
        return write_psd_csv(path, self)


def clip_negative_psd(freqs: FloatArray, values: FloatArray, report: Any,
                      logger: logging.Logger | None = None) -> FloatArray:
    """Clip negative double-sided PSD samples (V²/Hz) to zero.

    Diagnoses the worst offender on the report.

    A negative averaged PSD is pure discretization error (the true
    quantity is nonnegative); its magnitude measures how coarse the
    cross-spectral quadrature grid is. The sweep executor calls it once
    on the merged sweep values.
    """
    finite = np.isfinite(values)
    negative = finite & (values < 0.0)
    if np.any(negative):
        worst_idx = int(np.argmin(np.where(negative, values, 0.0)))
        worst = float(values[worst_idx])
        report.warning(
            "negative-psd-clipped",
            f"{int(np.sum(negative))} of {values.size} PSD samples were "
            f"negative and were clipped to zero (worst {worst:.3g} "
            f"V^2/Hz at {freqs[worst_idx]:.6g} Hz); the discretization "
            "is likely too coarse — increase segments_per_phase",
            count=int(np.sum(negative)), worst_value=worst,
            worst_frequency=float(freqs[worst_idx]))
        if logger is not None:
            logger.warning("clipped %d negative PSD samples (worst %.3g "
                           "at %.6g Hz)", int(np.sum(negative)), worst,
                           freqs[worst_idx])
    clipped = values.copy()
    clipped[negative] = 0.0
    return clipped


def worst_negative_psd(values: ArrayLike) -> float:
    """Most negative finite double-sided PSD sample (V²/Hz), else 0.0."""
    samples = np.asarray(values, dtype=float)
    finite = np.isfinite(samples)
    negative = finite & (samples < 0.0)
    if not np.any(negative):
        return 0.0
    return float(samples[negative].min())


@dataclass
class ConvergenceTrace:
    """PSD-vs-time trace of the brute-force engine (paper Fig. 1)."""

    times: np.ndarray
    psd_estimates: np.ndarray
    frequency: float
    converged: bool
    periods: int

    def final(self) -> float:
        return float(self.psd_estimates[-1])

    def db_swing(self, last_n: int = 10) -> float:
        """Max dB change over the last ``last_n`` samples."""
        tail = self.psd_estimates[-last_n:]
        tail = tail[tail > 0.0]
        if tail.size < 2:
            return float(np.inf)
        return float(db10(float(tail.max())) - db10(float(tail.min())))
