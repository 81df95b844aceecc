#!/usr/bin/env python
"""SC band-pass filter: signal response, noise spectrum and in-band SNR.

A filter-design scenario on the paper's band-pass circuit (Fig. 4 class:
128 kHz clock, 80 Ω switches, 20 nV/√Hz op-amps): compute the signal
frequency response and the output noise spectrum with the *same* LPTV
machinery, then estimate the dynamic range for a full-scale tone at the
centre frequency.

Run:  python examples/bandpass_filter_noise.py
"""

import numpy as np

from repro import NoiseAnalysis
from repro.circuits import ScBandpassParams, sc_bandpass_system
from repro.io.asciiplot import ascii_plot
from repro.io.tables import format_table
from repro.lptv.htf import harmonic_transfer_functions
from repro.noise.snr import signal_power_sine, snr_db


def main():
    params = ScBandpassParams(f_center=10e3, q_factor=8.0)
    model = sc_bandpass_system(params)
    print(f"SC band-pass biquad: f0 = {params.f_center / 1e3:.0f} kHz, "
          f"Q = {params.q_factor:.0f}, f_clk = "
          f"{params.f_clock / 1e3:.0f} kHz")
    print(f"capacitors: Cin = {params.c_in * 1e12:.2f} pF, "
          f"Cloop = {params.c_loop * 1e12:.2f} pF, "
          f"Cq = {params.c_q * 1e12:.2f} pF, "
          f"Ci = {params.c_integrate * 1e12:.0f} pF")

    # --- signal transfer through the switched filter ---------------------
    signal_system = model.signal_system()
    freqs = np.linspace(2e3, 24e3, 23)
    gains = []
    for f in freqs:
        htf = harmonic_transfer_functions(signal_system,
                                          2.0 * np.pi * f,
                                          n_harmonics=0,
                                          segments_per_phase=16)
        gains.append(abs(htf[(0, 0)]))
    gains = np.asarray(gains)
    print(ascii_plot(freqs / 1e3, 20 * np.log10(gains), width=64,
                     height=12, label="signal gain [dB] vs f [kHz]"))

    # --- noise spectrum ----------------------------------------------------
    analysis = NoiseAnalysis(model, segments_per_phase=24)
    spectrum = analysis.psd(freqs)
    print(ascii_plot(freqs / 1e3, spectrum.db(), width=64, height=12,
                     label="output noise PSD [dB V^2/Hz] vs f [kHz]"))

    # --- dynamic range -----------------------------------------------------
    f_peak = freqs[np.argmax(gains)]
    gain_peak = gains.max()
    full_scale_in = 0.1  # 100 mV input tone
    signal_power = signal_power_sine(full_scale_in * gain_peak)
    band = (params.f_center * (1 - 0.5 / params.q_factor),
            params.f_center * (1 + 0.5 / params.q_factor))
    fine = np.linspace(band[0], band[1], 40)
    in_band_noise = 2.0 * analysis.psd(fine).integrated_power()
    rows = [
        ["resonant gain", f"{gain_peak:.3f} at "
         f"{f_peak / 1e3:.1f} kHz"],
        ["total output variance [V^2]", analysis.average_output_variance()],
        ["in-band noise power [V^2]", in_band_noise],
        ["in-band SNR for 100 mV input [dB]",
         snr_db(signal_power, in_band_noise)],
    ]
    print(format_table(["quantity", "value"], rows))


if __name__ == "__main__":
    main()
