"""The five benchmark workloads: inputs, requests and correctness checks.

A request is "circuit in, PSD out, starting cold": every input carries
seeded component jitter, so no two requests share a sweep context.  The
library is driven only through its public API.  Why each workload exists
is recorded in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import (
    ClockSchedule,
    Netlist,
    NoiseAnalysis,
    SampleHoldParams,
    ScBandpassParams,
    ScIntegratorParams,
    ScLowpassParams,
    SwitchedRcParams,
    build_lptv_system,
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.circuit import add_source_follower_opamp
from repro.circuits import NOMINAL_TEMPERATURE_K, ParameterGrid
from repro.circuits.sc_lowpass import (
    PAPER_OPAMP_NOISE_PSD,
    PAPER_WU_SOURCE_FOLLOWER,
)
from repro.metrics import rms_noise
from repro.mft.context import SweepContext
from repro.results import from_payload, to_payload
from repro.service import JobSpec

#: Discretization density of every request (the library default).
SEGMENTS = 64
#: Relative ±jitter applied to switch resistances and capacitors.
JITTER = 0.05
#: Reference checks: frequencies compared per checked request, the
#: scale-relative tolerance, and checked requests per round.
CHECK_FREQUENCIES = 4
CHECK_RTOL = 1e-9
CHECKS_PER_ROUND = 2


@dataclass
class Outcome:
    """What the load generator keeps of one request."""

    points: int
    nan_points: int
    n_states: int
    value: Any = None


def jitter(rng, value):
    return float(value) * (1.0 + rng.uniform(-JITTER, JITTER))


def band(f_clock, n_points):
    """``n_points`` baseband frequencies, clear of DC and clock harmonics."""
    return float(f_clock) * np.linspace(0.01, 0.49, n_points)


def n_states_of(model):
    return getattr(model, "system", model).n_states


def compare_psd(values, reference):
    """Failure message, or ``None`` when two PSD samples agree."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if not np.array_equal(np.isnan(values), np.isnan(reference)):
        return "NaN masks differ from the reference"
    finite = np.isfinite(reference)
    if not np.any(finite):
        return None
    scale = float(np.max(np.abs(reference[finite])))
    err = float(np.max(np.abs(values[finite] - reference[finite])))
    if not err <= CHECK_RTOL * scale:
        return (f"max |delta| / max |ref| = {err / scale:.3g} exceeds "
                f"{CHECK_RTOL:g}")
    return None


def mft_reference(system, frequencies):
    """The per-frequency ``mft`` solver on a fresh context."""
    context = SweepContext(getattr(system, "system", system), SEGMENTS)
    return NoiseAnalysis(system, context=context).psd(
        frequencies, solver="mft").psd


def check_against_mft(model, result, rng):
    """Compare seeded frequencies of a sweep against the ``mft`` solver."""
    idx = np.sort(rng.choice(result.frequencies.size,
                             size=min(CHECK_FREQUENCIES,
                                      result.frequencies.size),
                             replace=False))
    reference = mft_reference(model, result.frequencies[idx])
    message = compare_psd(result.psd[idx], reference)
    return [] if message is None else [message]


def sweep_outcome(model, result, value):
    return Outcome(points=int(result.psd.size), nan_points=result.n_failed,
                   n_states=n_states_of(model), value=value)


# -- lowpass-dense -------------------------------------------------------------

def lowpass_params(rng):
    return ScLowpassParams(
        c1=jitter(rng, 300e-12), c2=jitter(rng, 100e-12),
        c3=jitter(rng, 100e-12), r1=jitter(rng, 80.0),
        r4=jitter(rng, 80.0), r5=jitter(rng, 80.0), r6=jitter(rng, 80.0))


class LowpassDense:
    name = "lowpass-dense"
    grid = band(ScLowpassParams().f_clock, 256)

    def make_input(self, rng, index):
        return lowpass_params(rng)

    def request(self, params, tracer):
        with tracer.span("circuits.build"):
            model = sc_lowpass_system(params)
        with tracer.span("analysis.construct"):
            analysis = NoiseAnalysis(
                model, **tracer.analysis_options(model.system, SEGMENTS))
        with tracer.span("analysis.psd_sweep"):
            result = analysis.psd_sweep(self.grid, solver="spectral-batch")
        with tracer.span("metrics.band"):
            rms = rms_noise(result)
        return sweep_outcome(model, result, (model, result, rms))

    def check(self, params, outcome, rng):
        model, result, rms = outcome.value
        errors = [] if rms.ok else [f"rms_noise failed: {rms.reason}"]
        return errors + check_against_mft(model, result, rng)


# -- catalog-spot --------------------------------------------------------------

def _switched_rc(rng):
    params = SwitchedRcParams(resistance=jitter(rng, 10e3),
                              capacitance=jitter(rng, 1e-9))
    return switched_rc_system(params), 1.0 / params.period


def _sample_hold(rng):
    params = SampleHoldParams(r_source=jitter(rng, 1e3),
                              r_switch=jitter(rng, 200.0),
                              c_hold=jitter(rng, 10e-12))
    return sample_hold_system(params), params.f_clock


def _sc_integrator(rng):
    params = ScIntegratorParams(c_sample=jitter(rng, 1e-12),
                                c_integrate=jitter(rng, 10e-12),
                                ron=jitter(rng, 1e3))
    return sc_integrator_system(params), params.f_clock


def _sc_lowpass(rng):
    params = lowpass_params(rng)
    return sc_lowpass_system(params), params.f_clock


def _sc_bandpass(rng):
    params = ScBandpassParams(c_integrate=jitter(rng, 10e-12),
                              ron=jitter(rng, 80.0))
    return sc_bandpass_system(params), params.f_clock


class CatalogSpot:
    name = "catalog-spot"
    builders = (_switched_rc, _sample_hold, _sc_integrator, _sc_lowpass,
                _sc_bandpass)
    n_points = 8

    def make_input(self, rng, index):
        # The builder runs inside the request; its jitter draws are
        # fixed here so the request is a pure function of its input.
        return index % len(self.builders), int(rng.integers(2**63))

    def request(self, inp, tracer):
        which, seed = inp
        with tracer.span("circuits.build"):
            model, f_clock = self.builders[which](
                np.random.default_rng(seed))
        system = getattr(model, "system", model)
        with tracer.span("analysis.construct"):
            analysis = NoiseAnalysis(
                model, **tracer.analysis_options(system, SEGMENTS))
        with tracer.span("analysis.psd_sweep"):
            result = analysis.psd_sweep(band(f_clock, self.n_points),
                                        solver="spectral-batch")
        return sweep_outcome(model, result, (model, result))

    def check(self, inp, outcome, rng):
        model, result = outcome.value
        return check_against_mft(model, result, rng)


# -- cascade-scaling -----------------------------------------------------------

def sc_cascade_system(n_stages, rng, f_clock=4e3):
    """``n_stages`` damped SC integrators in series (4 states each).

    Each stage is the paper's low-pass topology with C1 = C2 = C3 =
    100 pF (unity gain, one stable pole per stage) and a source-follower
    op-amp with the paper's input noise; stage ``k`` samples the output
    of stage ``k - 1``.
    """
    netlist = Netlist(f"sc-cascade-{n_stages}")
    netlist.add_voltage_source("Vin", "vin", "0", 0.0)
    previous = "vin"
    for k in range(n_stages):
        a, c, vsum, vout = f"a{k}", f"c{k}", f"vsum{k}", f"vout{k}"
        netlist.add_capacitor(f"C1_{k}", a, "0", jitter(rng, 100e-12))
        netlist.add_switch(f"S1_{k}", previous, a, ("phi1",),
                           ron=jitter(rng, 80.0))
        netlist.add_switch(f"S4_{k}", a, vsum, ("phi2",),
                           ron=jitter(rng, 80.0))
        netlist.add_capacitor(f"C3_{k}", c, "0", jitter(rng, 100e-12))
        netlist.add_switch(f"S5_{k}", c, vout, ("phi1",),
                           ron=jitter(rng, 80.0))
        netlist.add_switch(f"S6_{k}", c, vsum, ("phi2",),
                           ron=jitter(rng, 80.0))
        netlist.add_capacitor(f"C2_{k}", vsum, vout, jitter(rng, 100e-12))
        add_source_follower_opamp(
            netlist, f"op{k}", "0", vsum, vout,
            unity_gain_radps=PAPER_WU_SOURCE_FOLLOWER,
            input_noise_psd=PAPER_OPAMP_NOISE_PSD)
        previous = vout
    schedule = ClockSchedule.two_phase(f_clock, duty=0.5,
                                       names=("phi1", "phi2"))
    return build_lptv_system(netlist, schedule, outputs=[previous])


class CascadeScaling:
    name = "cascade-scaling"
    stages = (4, 8, 12)
    f_clock = 4e3
    #: 32 points keep 100 requests (~98 ms each at the reference speed)
    #: inside a 12 s run; at 64 points they took 20 s.
    grid = band(f_clock, 32)

    def make_input(self, rng, index):
        return self.stages[index % len(self.stages)], int(
            rng.integers(2**63))

    def request(self, inp, tracer):
        n_stages, seed = inp
        with tracer.span("circuits.build"):
            model = sc_cascade_system(n_stages, np.random.default_rng(seed),
                                      self.f_clock)
        with tracer.span("analysis.construct"):
            analysis = NoiseAnalysis(
                model, **tracer.analysis_options(model.system, SEGMENTS))
        with tracer.span("analysis.psd_sweep"):
            result = analysis.psd_sweep(self.grid, solver="spectral-batch")
        return sweep_outcome(model, result, (model, result))

    def check(self, inp, outcome, rng):
        model, result = outcome.value
        return check_against_mft(model, result, rng)


# -- corners-attributed --------------------------------------------------------

def corner_family(base):
    """4 capacitor corners x 4 noise-intensity corners around ``base``."""
    dynamics = {
        "nom": {},
        "c1lo": {"c1": 0.9 * base.c1},
        "c1hi": {"c1": 1.1 * base.c1},
        "c2hi": {"c2": 1.1 * base.c2},
    }
    intensities = {
        "cold": 250.0 / NOMINAL_TEMPERATURE_K,
        "nom": 1.0,
        "hot": 340.0 / NOMINAL_TEMPERATURE_K,
        "wc": 1.25,
    }
    return ParameterGrid.cross(dynamics, intensities,
                               builder=sc_lowpass_system, base_params=base)


def corner_reference(grid, index, base_model, frequencies):
    """Corner ``index``'s PSD from its own dynamics model via ``mft``.

    The PSD is linear in the noise intensity, so the reference is the
    intensity scale times the unscaled model's ``mft`` PSD.  Rebuilding
    the corner with ``scale_system_noise`` instead rounds the scaled
    noise Gramians afresh, and the covariance solve amplifies that to
    ~2e-9 of the exact value: more than the check's tolerance.
    """
    built = grid.build_model(index)
    model = base_model if built is None else built
    return grid.corners[index].uniform_scale * mft_reference(model,
                                                             frequencies)


class CornersAttributed:
    name = "corners-attributed"
    grid = band(ScLowpassParams().f_clock, 32)
    checked_corners = 4

    def make_input(self, rng, index):
        return lowpass_params(rng)

    def request(self, base, tracer):
        with tracer.span("circuits.build"):
            model = sc_lowpass_system(base)
            family = corner_family(base)
            if tracer.enabled:
                # Build the corner models here (the grid caches them, so
                # the sweep reuses them) to register traced contexts for
                # the dynamics roots the sweep will look up.
                roots = {}
                for index, corner in enumerate(family.corners):
                    built = family.build_model(index)
                    roots.setdefault(corner.overrides_key(),
                                     (model if built is None
                                      else built).system)
        if tracer.enabled:
            for system in roots.values():
                tracer.register(system, SEGMENTS,
                                family=family.family_hash())
        with tracer.span("analysis.construct"):
            analysis = NoiseAnalysis(
                model, **tracer.analysis_options(model.system, SEGMENTS))
        with tracer.span("analysis.psd_corners"):
            result = analysis.psd_corners(family, self.grid,
                                          attribute_sources=True)
        with tracer.span("metrics.band"):
            worst = result.worst_corners()[0][0]
            rms = rms_noise(result.corner(worst))
        return Outcome(points=int(result.values.size),
                       nan_points=int(np.sum(~np.isfinite(result.values))),
                       n_states=n_states_of(model),
                       value=(model, family, analysis, result, rms))

    def check(self, base, outcome, rng):
        model, family, _analysis, result, rms = outcome.value
        errors = [] if rms.ok else [f"rms_noise failed: {rms.reason}"]
        for name, budget in result.budgets.items():
            error = budget.conservation_error()
            if not error <= CHECK_RTOL:
                errors.append(f"corner {name}: budget rows miss the total "
                              f"by {error:.3g}")
        corners = rng.choice(len(family), size=self.checked_corners,
                             replace=False)
        idx = np.sort(rng.choice(self.grid.size, size=CHECK_FREQUENCIES,
                                 replace=False))
        for m in sorted(int(c) for c in corners):
            reference = corner_reference(family, m, model, self.grid[idx])
            message = compare_psd(result.values[m, idx], reference)
            if message is not None:
                errors.append(f"corner {family.names[m]}: {message}")
        return errors

    def attribution_cost_ratio(self, outcome):
        """Warm attributed sweep time over warm plain sweep time."""
        _model, family, analysis, _result, _rms = outcome.value
        t0 = time.perf_counter()
        analysis.psd_corners(family, self.grid)
        t1 = time.perf_counter()
        analysis.psd_corners(family, self.grid, attribute_sources=True)
        t2 = time.perf_counter()
        return (t2 - t1) / (t1 - t0)


# -- service-open-loop ---------------------------------------------------------

class ServiceOpenLoop:
    """Open-loop job traffic against one long-lived ``JobQueue``.

    Jobs come from a seeded catalog of ``catalog_size`` SC jobs drawn
    with Zipf exponent ``zipf_exponent``.  The warm-up first submits the
    ``prefill`` most popular jobs, then draws from the catalog like the
    measured phase, so measuring starts against a store in steady state:
    at ``rate`` jobs/s about 80% of submissions are store hits, and the
    misses (mostly the catalog's long tail) arrive at a near-constant
    rate instead of bunching at the start.  Both choices keep the
    percentiles steady: the median falls well inside the hits and the
    90th percentile near the median computed job.  With about half hits
    and an empty store, each percentile sat on the boundary between the
    two, and moved by 20-80% from seed to seed.  A catalog entry's
    circuit, grid size and attribution follow from its popularity rank
    alone (only the component jitter is seeded), so the traffic mix is
    the same for every seed.
    """

    name = "service-open-loop"
    rate = 40.0
    catalog_size = 2000
    zipf_exponent = 1.4
    prefill = 16
    sizes = (16, 32, 48, 64)
    #: Ranks (mod 16) of attributed entries: 1 in 4, spread over both
    #: circuits and all grid sizes.
    attributed_ranks = (3, 4, 9, 14)

    def catalog(self, rng):
        seeds = rng.integers(2**63, size=self.catalog_size)
        return [(("sc-lowpass", "sc-integrator")[rank % 2], int(seed),
                 self.sizes[(rank // 2) % len(self.sizes)],
                 rank % 16 in self.attributed_ranks)
                for rank, seed in enumerate(seeds)]

    def draws(self, rng, n):
        weights = 1.0 / np.arange(1, self.catalog_size + 1) ** \
            self.zipf_exponent
        return rng.choice(self.catalog_size, size=n,
                          p=weights / weights.sum())

    def arrivals(self, rng, seconds):
        """Poisson arrivals conditioned on their count: sorted uniforms."""
        n = max(1, int(round(self.rate * seconds)))
        return np.sort(rng.uniform(0.0, seconds, size=n))

    def build(self, entry):
        kind, seed, n_points, attributed = entry
        builder = _sc_lowpass if kind == "sc-lowpass" else _sc_integrator
        model, f_clock = builder(np.random.default_rng(seed))
        return model, band(f_clock, n_points), attributed

    def spec(self, entry, tracer):
        with tracer.span("circuits.build"):
            model, grid, attributed = self.build(entry)
        return model, JobSpec(model, grid, segments_per_phase=SEGMENTS,
                              solver="spectral-batch",
                              attribute_sources=attributed)

    def check_computed(self, model, result, rng):
        return check_against_mft(model, result, rng)


def job_digest(result):
    """Bytes that must match between a store hit and its computed twin."""
    parts = [result.frequencies.tobytes(), result.psd.tobytes()]
    if result.budget is not None:
        parts += [result.budget.contributions.tobytes(),
                  result.budget.total.tobytes()]
    return b"".join(parts)


def codec_costs(result):
    """``(encode_s, decode_s, payload_bytes)`` of one result."""
    t0 = time.perf_counter()
    payload = to_payload(result)
    blob = json.dumps(payload)
    t1 = time.perf_counter()
    from_payload(json.loads(blob))
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, len(blob.encode())


WORKLOADS = {w.name: w for w in (LowpassDense(), CatalogSpot(),
                                 CascadeScaling(), CornersAttributed(),
                                 ServiceOpenLoop())}
