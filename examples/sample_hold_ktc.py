#!/usr/bin/env python
"""Designing a track-and-hold: kT/C noise and the duty-cycle trade-off.

A data-converter front-end scenario: a source resistance plus sampling
switch charge a hold capacitor. The total noise power is the textbook
kT/C independent of every resistance, but *where that power sits in
frequency* depends strongly on the hold time — the "sampled-data-like"
behaviour of the paper's Fig. 3. This example sweeps the hold capacitor
and the duty cycle and prints the resulting noise budget, cross-checked
against the Rice closed form.

Run:  python examples/sample_hold_ktc.py
"""

import numpy as np

from repro import NoiseAnalysis
from repro.baselines.rice import rice_switched_rc_psd
from repro.circuits import (
    SampleHoldParams,
    SwitchedRcParams,
    sample_hold_system,
    switched_rc_system,
)
from repro.io.tables import format_table
from repro.units import format_value


def ktc_budget():
    print("kT/C budget versus hold capacitor "
          "(1 MHz clock, 1 kOhm source, 200 Ohm switch):")
    rows = []
    for c_hold in (1e-12, 4e-12, 10e-12, 40e-12):
        params = SampleHoldParams(c_hold=c_hold)
        analysis = NoiseAnalysis(sample_hold_system(params),
                                 segments_per_phase=32)
        variance = analysis.average_output_variance()
        rows.append([format_value(c_hold, "F"),
                     np.sqrt(variance) * 1e6,
                     np.sqrt(params.ktc_variance) * 1e6])
    print(format_table(
        ["C_hold", "simulated rms noise [uV]", "sqrt(kT/C) [uV]"], rows))


def duty_cycle_shaping():
    print("\nSpectral shaping versus duty cycle "
          "(switched RC, T = 5 tau):")
    base = dict(resistance=10e3, capacitance=1e-9, period=5e-5)
    freqs = np.array([1e3, 10e3, 20e3, 40e3])
    rows = []
    for duty in (0.9, 0.5, 0.2):
        params = SwitchedRcParams(duty=duty, **base)
        analysis = NoiseAnalysis(switched_rc_system(params),
                                 segments_per_phase=48)
        psd = analysis.psd(freqs)
        rice = rice_switched_rc_psd(params, freqs)
        worst = np.max(np.abs(10 * np.log10(psd.psd / rice)))
        rows.append([duty] + [f"{v:.3g}" for v in psd.psd]
                    + [f"{worst:.4f}"])
    print(format_table(
        ["duty"] + [f"S({f / 1e3:.0f}k)" for f in freqs]
        + ["max dev vs Rice [dB]"], rows))
    print("Lower duty -> longer hold -> noise power squeezed below "
          "1/t_hold (sampled-data-like spectrum, paper Fig. 3).")


def per_source_breakdown():
    print("\nPer-source contribution at 100 kHz "
          "(source resistor vs switch):")
    params = SampleHoldParams()
    analysis = NoiseAnalysis(sample_hold_system(params),
                             segments_per_phase=32)
    print(analysis.contribution_report(100e3))
    print(f"(R_source = {params.r_source:.0f} Ohm, "
          f"R_switch = {params.r_switch:.0f} Ohm: contributions track "
          "the resistances during the track phase.)")


if __name__ == "__main__":
    ktc_budget()
    duty_cycle_shaping()
    per_source_breakdown()
