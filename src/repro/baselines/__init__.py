"""Independent comparator implementations.

The paper validates its engine against previously published analytical and
frequency-domain results. The raw published data points are not available
to this reproduction, so each comparator *method* is implemented here from
first principles and the benchmarks compare our time-domain engines
against these implementations:

* :mod:`repro.baselines.rice` — closed-form PSD of the switched RC
  circuit (Rice 1970's circuit, solved in closed form).
* :mod:`repro.baselines.lti` — stationary AC noise analysis of LTI
  circuits (Rohrer-style), the d→1 / no-switching limit.
* :mod:`repro.baselines.htf_noise` — LPTV noise analysis through harmonic
  transfer functions with noise folding (Strom–Signell / Roychowdhury).
* :mod:`repro.baselines.toth_suyama` — ideal-SC discrete-time ("full and
  fast charge transfer") analysis with sinc-shaped sample-and-hold
  spectra (Tóth–Suyama / Tóth et al.).
* :mod:`repro.baselines.montecarlo` — brute Monte-Carlo SDE ensemble with
  exact per-segment Gaussian sampling and Welch periodograms.
* :mod:`repro.baselines.demir` — the Lorentzian oscillator phase-noise
  formula of Demir et al. (extension experiments).
* :mod:`repro.baselines.razavi` — the LTI oscillator PSD approximation
  ``B/Δω²`` (extension experiments).
* :mod:`repro.baselines.referee` — the exact averaged PSD of a
  piecewise-LTI system with no segment grid (one matrix exponential of
  an augmented affine system per phase), the referee of the MFT
  kernels' discretization error.
"""

from .rice import (
    rice_sampled_data_limit_psd,
    rice_switched_rc_psd,
    rice_switched_rc_variance,
    rice_track_only_psd,
)
from .lti import lti_noise_psd, lti_output_variance
from .htf_noise import htf_noise_psd
from .toth_suyama import (
    IdealScNetwork,
    discrete_spectrum,
    ideal_lowpass_model,
    sampled_and_held_psd,
)
from .montecarlo import (
    MonteCarloResult,
    monte_carlo_psd,
    simulate_trajectories,
)
from .demir import (
    demir_c_parameter,
    demir_corner_frequency,
    demir_lorentzian_ssb,
    lorentzian_psd,
)
from .referee import referee_psd
from .razavi import (
    linear_ring_psd_exact,
    linear_ring_variance_slope,
    razavi_linear_oscillator_psd,
)

__all__ = [
    "rice_switched_rc_psd",
    "rice_switched_rc_variance",
    "rice_track_only_psd",
    "rice_sampled_data_limit_psd",
    "lti_noise_psd",
    "lti_output_variance",
    "htf_noise_psd",
    "IdealScNetwork",
    "discrete_spectrum",
    "ideal_lowpass_model",
    "sampled_and_held_psd",
    "monte_carlo_psd",
    "simulate_trajectories",
    "MonteCarloResult",
    "demir_c_parameter",
    "demir_corner_frequency",
    "demir_lorentzian_ssb",
    "lorentzian_psd",
    "razavi_linear_oscillator_psd",
    "linear_ring_psd_exact",
    "linear_ring_variance_slope",
    "referee_psd",
]
