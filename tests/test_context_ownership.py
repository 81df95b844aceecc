"""Each analysis owns its sweep context; the library never fills the registry.

An analyzer built without ``context=`` holds a private
:class:`~repro.mft.context.SweepContext` that lives exactly as long as
the analysis.  A corner sweep takes its analysis's context as the root of
the override-free corners, looks its other dynamics roots up in the
registry without inserting, and derives intensity members from their
roots.  Only :func:`~repro.mft.context.sweep_context_for` inserts.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis import NoiseAnalysis
from repro.circuits import ParameterGrid, ScLowpassParams, sc_lowpass_system
from repro.errors import ReproError, ScheduleError
from repro.lptv.system import PiecewiseLTISystem
from repro.mft import context as context_module
from repro.mft.context import SweepContext, clear_sweep_contexts
from repro.mft.corners import corner_psd_sweep
from repro.mft.engine import MftNoiseAnalyzer

SPP = 16
FREQS = np.linspace(200.0, 12e3, 4)


def _family(n_dynamics=2):
    """Dynamics × intensity corners of the SC low-pass, nominal first."""
    base = ScLowpassParams()
    dynamics = {"nom": {}, "c1lo": {"c1": 0.9 * base.c1},
                "c1hi": {"c1": 1.1 * base.c1}, "c2hi": {"c2": 1.1 * base.c2}}
    return ParameterGrid.cross(
        dict(list(dynamics.items())[:n_dynamics]),
        {"cold": 0.85, "nom": 1.0, "hot": 1.15, "wc": 1.25},
        builder=sc_lowpass_system, base_params=base)


def _plain(model):
    MftNoiseAnalyzer(model.system, segments_per_phase=SPP).psd_sweep(
        FREQS, solver="spectral-batch")


def _attributed(model):
    NoiseAnalysis(model, segments_per_phase=SPP).psd_sweep(
        FREQS, solver="spectral-batch", attribute_sources=True)


def _corners(model):
    NoiseAnalysis(model, segments_per_phase=SPP).psd_corners(
        _family(), FREQS, attribute_sources=True)


@pytest.mark.parametrize("sweep", [_plain, _attributed, _corners],
                         ids=["plain", "attributed", "corners"])
def test_sweeps_leave_the_registry_empty(sweep):
    clear_sweep_contexts()
    sweep(sc_lowpass_system())
    assert len(context_module._REGISTRY) == 0


def test_dropped_analysis_context_is_collected():
    analysis = NoiseAnalysis(sc_lowpass_system(), segments_per_phase=SPP)
    analysis.psd_sweep(FREQS, solver="spectral-batch")
    alive = weakref.ref(analysis.context)
    del analysis
    gc.collect()
    assert alive() is None


def test_psd_corners_discretizes_each_dynamics_root_once(monkeypatch):
    calls = []
    discretize = PiecewiseLTISystem.discretize

    def counted(self, *args, **kwargs):
        calls.append(id(self))
        return discretize(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseLTISystem, "discretize", counted)
    clear_sweep_contexts()
    analysis = NoiseAnalysis(sc_lowpass_system(), segments_per_phase=SPP)
    result = analysis.psd_corners(_family(4), FREQS)
    assert np.all(np.isfinite(result.values))
    # The analysis's discretization serves the nominal root too.
    assert len(calls) == 4


class TestBaseContext:
    """``corner_psd_sweep(context=)``: the override-free corners' root."""

    def test_values_match_a_private_root(self):
        model = sc_lowpass_system()
        grid = _family()
        context = SweepContext(model.system, SPP)
        given = corner_psd_sweep(model, grid, FREQS, segments_per_phase=SPP,
                                 context=context, attribute_sources=True)
        fresh = corner_psd_sweep(model, grid, FREQS, segments_per_phase=SPP,
                                 attribute_sources=True)
        assert given.values.tobytes() == fresh.values.tobytes()
        for name in grid.names:
            assert (given.budgets[name].contributions.tobytes()
                    == fresh.budgets[name].contributions.tobytes())

    def test_rejects_another_system(self):
        model = sc_lowpass_system()
        other = sc_lowpass_system(ScLowpassParams(c1=2.0 * ScLowpassParams().c1))
        with pytest.raises(ReproError, match="different system or density"):
            corner_psd_sweep(model, _family(), FREQS, segments_per_phase=SPP,
                             context=SweepContext(other.system, SPP))

    def test_rejects_another_density(self):
        model = sc_lowpass_system()
        with pytest.raises(ReproError, match="different system or density"):
            corner_psd_sweep(model, _family(), FREQS, segments_per_phase=SPP,
                             context=SweepContext(model.system, 2 * SPP))

    def test_accepts_another_spelling_of_the_density(self):
        model = sc_lowpass_system()
        context = SweepContext(model.system, [SPP, SPP])
        result = corner_psd_sweep(model, _family(1), FREQS,
                                  segments_per_phase=SPP, context=context)
        assert np.all(np.isfinite(result.values))

    def test_rejects_a_non_context(self):
        model = sc_lowpass_system()
        with pytest.raises(ReproError, match="SweepContext"):
            corner_psd_sweep(model, _family(), FREQS, segments_per_phase=SPP,
                             context=object())


def test_private_context_validates_the_density():
    system = sc_lowpass_system().system
    with pytest.raises(ScheduleError, match="segments_per_phase"):
        MftNoiseAnalyzer(system, segments_per_phase="16", preflight=False)
