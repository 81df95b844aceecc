#!/usr/bin/env python
"""Quickstart: noise PSD of the paper's switched-capacitor low-pass filter.

Builds the SC low-pass filter of the paper's Fig. 6 (300/100/100 pF,
80 Ω switches, 4 kHz clock, source-follower op-amp), computes its output
noise spectrum with the mixed-frequency-time engine, shows the paper's
Fig. 1 convergence curve for the brute-force baseline at 7.5 kHz, and
prints the per-state noise contribution breakdown.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import NoiseAnalysis, sc_lowpass_system
from repro.circuits import ScLowpassParams
from repro.io.asciiplot import ascii_plot
from repro.io.tables import format_table


def main():
    params = ScLowpassParams()
    print(f"SC low-pass filter: C1={params.c1 * 1e12:.0f} pF, "
          f"C2={params.c2 * 1e12:.0f} pF, C3={params.c3 * 1e12:.0f} pF, "
          f"f_clk={params.f_clock / 1e3:.0f} kHz, "
          f"op-amp wu={params.resolved_wu / 1e6:.1f} Mrad/s")
    model = sc_lowpass_system(params)
    print(f"states: {model.system.state_names}")

    analysis = NoiseAnalysis(model, segments_per_phase=48)

    # --- the fast steady-state spectrum ---------------------------------
    freqs = np.linspace(100.0, 12e3, 60)
    spectrum = analysis.psd(freqs)
    print(f"\nMFT spectrum ({len(freqs)} frequencies in "
          f"{spectrum.info['runtime_seconds'] * 1e3:.0f} ms):")
    print(ascii_plot(freqs / 1e3, spectrum.db(), width=64, height=14,
                     label="output noise PSD [dB V^2/Hz] vs f [kHz]"))

    # --- paper Fig. 1: brute-force convergence at 7.5 kHz ----------------
    trace = analysis.convergence_trace(7.5e3, tol_db=0.1,
                                       window_periods=5)
    print(f"\nBrute-force baseline at 7.5 kHz: converged after "
          f"{trace.periods} clock periods "
          f"(MFT needs a single steady-state solve).")
    print(ascii_plot(trace.times * 1e3, trace.psd_estimates,
                     width=64, height=10,
                     label="PSD estimate vs time [ms]  (paper Fig. 1)"))

    # --- figures of merit -------------------------------------------------
    rows = [
        ["average output noise variance [V^2]",
         analysis.average_output_variance()],
        ["PSD at 7.5 kHz [V^2/Hz] (MFT)", analysis.psd([7.5e3]).psd[0]],
        ["PSD at 7.5 kHz [V^2/Hz] (brute force)", trace.final()],
    ]
    print()
    print(format_table(["quantity", "value"], rows))

    # --- who is responsible for the noise --------------------------------
    print()
    print(analysis.contribution_report(7.5e3))


if __name__ == "__main__":
    main()
