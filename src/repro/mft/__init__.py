"""The mixed-frequency-time (MFT) noise engine — the DAC 2003 method.

The brute-force engine integrates the energy-spectral-density ODEs over
hundreds of clock cycles per frequency. The MFT engine observes that the
cross-spectral forcing is *quasi-periodic* with exactly two tones — the
clock and the analysis frequency — and solves directly for the
quasi-periodic steady state:

1. the periodic covariance is a discrete Lyapunov fixed point of the
   one-period map (:mod:`repro.noise.covariance`);
2. per analysis frequency, the cross-spectral envelope is the fixed point
   of a one-period *complex* affine map built from frequency-shifted
   segment propagators (``e^{-jωh} Phi`` — the propagators are shared
   across all frequencies);
3. the averaged PSD is a single quadrature over that one period.

:mod:`repro.mft.engine` implements the specialised two-tone path used by
all benchmarks; :mod:`repro.mft.bvp` implements the general J-sample-cycle
MFT collocation with a DFT delay operator (Kundert-style), which reduces
to the engine's fixed point for a single slow tone and is cross-validated
against it in the tests.
"""

from .engine import InstantaneousPsd, MftNoiseAnalyzer
from .corners import CornerSweepResult, corner_psd_sweep
from .context import (
    CacheStats,
    SweepContext,
    clear_sweep_contexts,
    discretization_fingerprint,
    sweep_context_for,
)
from .spectral import (
    BatchedSolveResult,
    solve_spectral_batch,
)
from .sweep import (
    adaptive_frequency_grid,
    clock_harmonic_grid,
    decade_grid,
    linear_grid,
)
from .bvp import MftCollocationProblem, solve_mft_collocation
from .delay import delay_matrix, dft_matrix, idft_matrix

__all__ = [
    "MftNoiseAnalyzer",
    "InstantaneousPsd",
    "CacheStats",
    "SweepContext",
    "BatchedSolveResult",
    "CornerSweepResult",
    "corner_psd_sweep",
    "solve_spectral_batch",
    "sweep_context_for",
    "clear_sweep_contexts",
    "discretization_fingerprint",
    "decade_grid",
    "linear_grid",
    "clock_harmonic_grid",
    "adaptive_frequency_grid",
    "MftCollocationProblem",
    "solve_mft_collocation",
    "delay_matrix",
    "dft_matrix",
    "idft_matrix",
]
