"""Per-source attribution set-up: the stacked covariance pass.

``SweepContext.source_covariance`` solves every noise source of a
context in one pass over the period, with a leading source axis, from
the exactly conservative per-phase Gramian split.  These tests pin that
the stacked route is *bit-identical* to the one-source-at-a-time route
through ``source_disc`` — per-source covariances, forcing pairs, and a
whole attributed corner sweep — and that the per-source entry points
share one index guard and the stability semantics of
``periodic_covariance``.  An attributed corner sweep builds one
discretization per dynamics root and none for its intensity corners.
"""

import numpy as np
import pytest

from repro.analysis import NoiseAnalysis
from repro.circuits import (
    ParameterGrid,
    ScLowpassParams,
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.errors import ReproError, StabilityError
from repro.lptv.periodic_solve import forcing_from_samples
from repro.lptv.system import Phase, PiecewiseLTISystem
from repro.mft import context as context_module
from repro.mft.context import (
    SweepContext,
    clear_sweep_contexts,
    sweep_context_for,
)
from repro.noise.covariance import periodic_covariance, steady_state_samples
from repro.obs import Recorder

CIRCUITS = {
    "switched-rc": switched_rc_system,
    "sample-hold": sample_hold_system,
    "sc-integrator": sc_integrator_system,
    "sc-lowpass": sc_lowpass_system,
    "sc-bandpass": sc_bandpass_system,
}

SPP = 16


def _system(build):
    model = build()
    return getattr(model, "system", model)


def _l_row(system):
    return np.asarray(system.output_matrix)[0].astype(float)


class _SourceDiscRoute(SweepContext):
    """A context solving each source alone through ``source_disc``."""

    def source_covariance(self, source):
        return periodic_covariance(self.source_disc(source))

    def source_forcing_pairs(self, l_row, source):
        post, pre = self.source_covariance(source).forcing_samples(l_row)
        return forcing_from_samples(self.disc, post, pre)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_stacked_sources_match_source_disc_route(name):
    system = _system(CIRCUITS[name])
    context = SweepContext(system, segments_per_phase=SPP)
    l_row = _l_row(system)
    for s in range(context.n_sources):
        reference = periodic_covariance(context.source_disc(s))
        stacked = context.source_covariance(s)
        assert np.array_equal(stacked.pre, reference.pre)
        assert np.array_equal(stacked.post, reference.post)
        post, pre = reference.forcing_samples(l_row)
        assert np.array_equal(context.source_forcing_pairs(l_row, s),
                              forcing_from_samples(context.disc, post, pre))


def test_one_pass_serves_every_source(monkeypatch):
    context = SweepContext(_system(sc_lowpass_system), segments_per_phase=SPP)
    l_row = _l_row(context.system)
    passes = []

    def counted(disc, drives):
        passes.append(len(drives))
        return steady_state_samples(disc, drives)

    monkeypatch.setattr(context_module, "steady_state_samples", counted)
    for s in range(context.n_sources):
        context.source_forcing_pairs(l_row, s)
    assert len(passes) == 1
    assert len(context._source_forcing) == context.n_sources
    assert context._source_discs == {}


def _corner_family():
    base = ScLowpassParams()
    return ParameterGrid.cross(
        {"nom": {}, "c1hi": {"c1": 1.1 * base.c1}},
        {"nom": 1.0, "hot": 1.2, "skew": {0: 1.5, 3: 0.5}},
        builder=sc_lowpass_system, base_params=base)


def _attributed_corners(route):
    clear_sweep_contexts()
    model = sc_lowpass_system()
    grid = _corner_family()
    context = None
    if route is not None:
        # The override-free corners draw from the analysis's context,
        # the others from the roots registered under the family hash.
        context = route(model.system, SPP)
        for index, corner in enumerate(grid.corners):
            built = grid.build_model(index)
            system = (model if built is None else built).system
            sweep_context_for(system, SPP, family=grid.family_hash(),
                              build=lambda s=system: route(s, SPP))
    analysis = NoiseAnalysis(model, segments_per_phase=SPP,
                             context=context)
    freqs = np.linspace(200.0, 12e3, 6)
    result = analysis.psd_corners(grid, freqs, attribute_sources=True)
    clear_sweep_contexts()
    return result


def test_attributed_corner_sweep_matches_source_disc_route():
    stacked = _attributed_corners(None)
    reference = _attributed_corners(_SourceDiscRoute)
    assert np.array_equal(stacked.values, reference.values)
    for name in stacked.corner_names:
        got, want = stacked.budgets[name], reference.budgets[name]
        assert np.array_equal(got.total, want.total)
        assert np.array_equal(got.contributions, want.contributions)


def _check_corner_sweep_builds_no_derived_discretization(intensities,
                                                         roots, built):
    roots.clear()
    built.clear()
    model = sc_lowpass_system()
    base = ScLowpassParams()
    grid = ParameterGrid.cross({"nom": {}, "c1hi": {"c1": 1.1 * base.c1}},
                               intensities,
                               builder=sc_lowpass_system, base_params=base)
    recorder = Recorder()
    analysis = NoiseAnalysis(model, segments_per_phase=SPP,
                             recorder=recorder)
    result = analysis.psd_corners(grid, np.linspace(200.0, 12e3, 4),
                                  attribute_sources=True)
    # One root per dynamics point, the analysis's own context the
    # nominal one, each preflighted once.
    assert len(roots) == 2
    assert roots[0].analyzer.context is analysis.context
    assert [len(root.corners) for root in roots] == [3, 3]
    names = [span.name for span in recorder.spans]
    assert names.count("mft.preflight") == 1 + len(roots)
    assert len(result.diagnostics.by_code("floquet-stable")) == 2
    # One discretization per root, and no rescaled or per-source one.
    assert built == [SPP, SPP]
    assert all(root.analyzer.context._source_discs == {} for root in roots)


def test_corner_sweep_builds_no_derived_discretization(corner_roots,
                                                       monkeypatch):
    built = []
    discretize = PiecewiseLTISystem.discretize

    def counted(self, segments_per_phase):
        built.append(segments_per_phase)
        return discretize(self, segments_per_phase)

    monkeypatch.setattr(PiecewiseLTISystem, "discretize", counted)
    _check_corner_sweep_builds_no_derived_discretization(
        {"nom": 1.0, "cold": 0.85, "hot": 1.2}, corner_roots, built)
    # An intensity-scaled corner first on every dynamics root: the root
    # is preflighted on its own system, never a rescaled one.
    _check_corner_sweep_builds_no_derived_discretization(
        {"cold": 0.85, "nom": 1.0, "hot": 1.2}, corner_roots, built)


class TestSourceIndexGuard:
    @pytest.fixture(scope="class")
    def context(self):
        return SweepContext(_system(sc_lowpass_system),
                            segments_per_phase=SPP)

    @pytest.mark.parametrize("entry", ["source_covariance",
                                       "source_forcing_pairs",
                                       "source_disc"])
    def test_out_of_range_raises_repro_error(self, context, entry):
        n_src = context.n_sources
        l_row = _l_row(context.system)
        for bad in (-1, n_src):
            call = getattr(context, entry)
            args = (l_row, bad) if entry == "source_forcing_pairs" else (bad,)
            with pytest.raises(ReproError,
                               match=f"valid indices are 0 to {n_src - 1}"):
                call(*args)


def test_unstable_source_covariance_matches_periodic_covariance():
    phase = Phase(name="p0", duration=1e-3, a_matrix=np.diag([50.0, -1e4]),
                  b_matrix=np.eye(2) * 1e-6)
    system = PiecewiseLTISystem(phases=[phase], output_matrix=np.eye(2)[:1])
    context = SweepContext(system, segments_per_phase=8)
    with pytest.raises(StabilityError) as stacked:
        context.source_covariance(0)
    with pytest.raises(StabilityError) as reference:
        periodic_covariance(context.source_disc(0))
    got, want = stacked.value, reference.value
    assert np.array_equal(got.multipliers, want.multipliers)
    assert got.spectral_radius == want.spectral_radius > 1.0
    findings = got.diagnostics.by_code("floquet-unstable")
    assert len(findings) == 1
    assert str(got) == str(want)
