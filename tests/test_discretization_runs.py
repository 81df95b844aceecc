"""The discretization holds runs; its segment list is a lazy view.

``PiecewiseLTISystem.discretize`` emits one :class:`PhaseRun` per phase
and distinct step, and every set-up consumer (structure, covariance,
preflight, the per-source split, derived contexts) reads the runs.  A
discretization built from a segment list derives its runs by
``segment_runs``' rule, so ``replace(disc, segments=list(disc.segments))``
is the same discretization reached the other way: the battery here
checks that every value computed from the two is bit-identical.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import NoiseAnalysis
from repro.circuits import (
    ParameterGrid,
    ScLowpassParams,
    sample_hold_system,
    sc_bandpass_system,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.diagnostics.preflight import preflight_report
from repro.errors import ReproError, ScheduleError
from repro.linalg.vanloan import vanloan_gramian
from repro.lptv.discretization import PeriodDiscretization
from repro.lptv.periodic_solve import (
    forcing_from_samples,
    periodic_steady_state,
)
from repro.lptv.system import Phase, PiecewiseLTISystem, _phase_edges
from repro.mft import context as context_module
from repro.mft.context import (
    SweepContext,
    clear_sweep_contexts,
    discretization_fingerprint,
    sweep_context_for,
)
from repro.mft.engine import MftNoiseAnalyzer
from repro.noise.brute_force import brute_force_psd
from test_mft_spectral import (
    _GivenGrid,
    _mid_phase_jump_system,
    _sampled_system,
    _sc_cascade,
)

BUILTINS = {
    "switched-rc": switched_rc_system,
    "sample-hold": sample_hold_system,
    "sc-integrator": sc_integrator_system,
    "sc-lowpass": sc_lowpass_system,
    "sc-bandpass": sc_bandpass_system,
}


def _system(build):
    model = build()
    return getattr(model, "system", model)


def _battery_discs():
    """``name -> (disc, output_matrix)`` for every battery system."""
    cases = {}
    for name, build in BUILTINS.items():
        system = _system(build)
        for spp in (16, 64):
            cases[f"{name}-{spp}"] = (system.discretize(spp),
                                      system.output_matrix)
    cascade = _sc_cascade(4).system
    cases["sc-cascade-4"] = (cascade.discretize(16), cascade.output_matrix)
    lowpass = _system(sc_lowpass_system)
    cases["boundary-layer"] = (lowpass.discretize(64, boundary_layer=True),
                               lowpass.output_matrix)
    for name, build in (("mid-phase-jump", _mid_phase_jump_system),
                        ("sampled", _sampled_system)):
        system = build()
        cases[name] = (system.discretize(16), system.output_matrix)
    return cases


BATTERY = _battery_discs()


def _values(disc, output_matrix):
    """Every set-up and sweep value computed from ``disc``, as bytes."""
    clear_sweep_contexts()
    context = SweepContext(_GivenGrid(disc, output_matrix),
                           segments_per_phase=16)
    struct = context.structure
    values = {
        "monodromy": context.monodromy,
        "condition-bound": np.float64(context.condition_bound),
        "durations": struct.durations,
        "t_end": struct.t_end,
        "group_of": struct.group_of,
        "has_jump": struct.has_jump,
        "run-bounds": np.array([(r.group, r.start, r.stop)
                                for r in struct.runs]),
        "lags": np.concatenate([r.lags for r in struct.runs]),
        "spans": np.array([r.span for r in struct.runs]),
    }
    l_row = np.asarray(output_matrix)[0].astype(float)
    for s in range(context.n_sources):
        cov = context.source_covariance(s)
        values[f"source-cov-{s}"] = np.stack((cov.pre, cov.post))
        values[f"source-pairs-{s}"] = context.source_forcing_pairs(l_row, s)
    cov = context.covariance
    values["cov"] = np.stack((cov.pre, cov.post))
    values["pairs"] = context.forcing_pairs(l_row)
    analyzer = MftNoiseAnalyzer(context.system, context=context)
    freqs = np.linspace(0.02, 1.9, 6) / disc.period
    values["psd"] = analyzer.psd_sweep(freqs, solver="spectral-batch").psd
    attributed = analyzer.psd_sweep(freqs, solver="spectral-batch",
                                    attribute_sources=True)
    values["psd-attributed"] = attributed.psd
    values["budget"] = attributed.info["budget"].contributions
    out = {key: np.asarray(value).tobytes() for key, value in values.items()}
    out["preflight"] = context.preflight.to_dict()
    return out


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_runs_first_is_bit_identical_to_segment_rebuild(name):
    disc, output_matrix = BATTERY[name]
    rebuilt = replace(disc, segments=list(disc.segments))
    assert [(r.start, r.stop) for r in rebuilt.runs] == [
        (r.start, r.stop) for r in disc.runs]
    assert np.array_equal(rebuilt.grid, disc.grid)
    got = _values(disc, output_matrix)
    want = _values(rebuilt, output_matrix)
    assert got.keys() == want.keys()
    for key in got:
        assert got[key] == want[key], key


def _segment_discretize(system, segments_per_phase, boundary_layer=False):
    """The per-segment discretizer the runs replaced, as a reference:
    ``[(t_start, t_end, phi, gramian, b, jump, a, phase_name), ...]``."""
    out = []
    t = 0.0
    for phase in system.phases:
        edges = _phase_edges(phase, segments_per_phase, boundary_layer)
        keys = np.round(np.diff(edges) / phase.duration, 15).tolist()
        edges = edges.tolist()
        bbt = phase.b_matrix @ phase.b_matrix.T
        cache = {}
        for k, key in enumerate(keys):
            if key not in cache:
                cache[key] = vanloan_gramian(phase.a_matrix, bbt,
                                             edges[k + 1] - edges[k])
            phi, gram = cache[key]
            out.append((t + edges[k], t + edges[k + 1], phi, gram,
                        phase.b_matrix,
                        phase.end_jump if k == len(keys) - 1 else None,
                        phase.a_matrix, phase.name))
        t += phase.duration
    return out


def _jumped_system():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    return PiecewiseLTISystem(phases=[
        Phase("fast", 1e-3, np.diag([-1e6, -1e2]), np.eye(2),
              end_jump=swap),
        Phase("slow", 7e-4, np.array([[-3e3, 1e2], [0.0, -5e2]]),
              np.array([[1.0], [0.5]]), end_jump=0.5 * np.eye(2))])


@pytest.mark.parametrize("case", [
    ("sc-lowpass", 16, False), ("sc-lowpass", 64, False),
    ("sc-bandpass", 64, False), ("sample-hold", 64, False),
    ("sc-lowpass", 64, True), ("jumped", 64, True)])
def test_lazy_segments_match_segment_discretizer(case):
    name, spp, graded = case
    system = (_jumped_system() if name == "jumped"
              else _system(BUILTINS[name]))
    disc = system.discretize(spp, boundary_layer=graded)
    assert "segments" not in vars(disc)
    want = _segment_discretize(system, spp, graded)
    segments = disc.segments
    assert disc.segments is segments
    assert len(segments) == len(want) == disc.n_segments
    for seg, (t0, t1, phi, gram, b, jump, a, phase_name) in zip(segments,
                                                                 want):
        assert (seg.t_start, seg.t_end) == (t0, t1)
        assert type(seg.t_start) is float and type(seg.t_end) is float
        assert np.array_equal(seg.phi, phi)
        assert np.array_equal(seg.gramian, gram)
        assert seg.b_matrix is b and seg.a_matrix is a and seg.jump is jump
        assert seg.phase_name == phase_name
    # One shared array object per run, and one run per distinct step.
    for run in disc.runs:
        members = segments[run.start:run.stop]
        for attr in ("phi", "gramian", "b_matrix", "a_matrix"):
            assert all(getattr(seg, attr) is getattr(run, attr)
                       for seg in members)
        assert all(seg.jump is None for seg in members[:-1])
        assert members[-1].jump is run.jump
    n_steps = sum(len(set(np.round(np.diff(
        _phase_edges(phase, spp, graded)) / phase.duration, 15).tolist()))
        for phase in system.phases)
    assert len({id(run.phi) for run in disc.runs}) == n_steps
    if not graded:
        assert len(disc.runs) == len(system.phases)


# -- the batched path never builds the segment list ----------------------------

def _built_segments(contexts):
    """Discretizations of ``contexts`` (and their roots) whose segment
    list exists."""
    held = {}
    for context in contexts:
        while context is not None:
            held[id(context)] = context
            context = getattr(context, "parent", None)
    discs = [context._disc for context in held.values()
             if context._disc is not None]
    assert discs
    return [disc for disc in discs if "segments" in vars(disc)]


class TestSegmentsStayUnbuilt:
    FREQS = np.linspace(100.0, 12e3, 8)

    @pytest.mark.parametrize("attribute", [False, True])
    def test_spectral_batch_sweep(self, attribute):
        analyzer = MftNoiseAnalyzer(_system(sc_lowpass_system),
                                    segments_per_phase=64)
        result = analyzer.psd_sweep(self.FREQS, solver="spectral-batch",
                                    attribute_sources=attribute)
        assert np.all(np.isfinite(result.psd))
        assert _built_segments([analyzer.context]) == []

    def test_attributed_corner_sweep(self, corner_roots):
        base = ScLowpassParams()
        grid = ParameterGrid.cross(
            {"nom": {}, "c1hi": {"c1": 1.1 * base.c1}},
            {"nom": 1.0, "hot": 1.2}, builder=sc_lowpass_system,
            base_params=base)
        analysis = NoiseAnalysis(sc_lowpass_system(), segments_per_phase=64)
        result = analysis.psd_corners(grid, self.FREQS,
                                      attribute_sources=True)
        for name in grid.names:
            result.budgets[name].check_conservation()
        assert len(corner_roots) == 2
        assert _built_segments([analysis.context]
                               + [root.analyzer.context
                                  for root in corner_roots]) == []

    def test_reference_engines_build_the_list(self):
        system = _system(sc_lowpass_system)
        context = SweepContext(system, segments_per_phase=8)
        disc = context.disc
        l_row = np.asarray(system.output_matrix)[0]
        post, pre = context.covariance.forcing_samples(l_row)
        forcing = forcing_from_samples(disc, post, pre)
        assert "segments" not in vars(disc)
        omega = 2.0 * np.pi * 3e3
        reference = periodic_steady_state(disc, omega, forcing)
        fast = context.solve_shifted(omega, forcing)
        assert "segments" in vars(disc)
        scale = np.max(np.abs(reference.integral))
        assert np.max(np.abs(fast.integral - reference.integral)) <= (
            1e-12 * scale)
        result = brute_force_psd(system, [3e3], context=context,
                                 tol_db=0.5)
        assert np.isfinite(result.psd[0])


# -- segments_per_phase: validated once, one registry key --------------------

class TestSegmentCounts:
    @pytest.fixture(scope="class")
    def system(self):
        return _system(sc_lowpass_system)

    @pytest.mark.parametrize("value", ["16", 16.0, True, np.float64(16.0),
                                       np.array([16.0, 16.0]), [16, 16.0],
                                       [True, 16], np.array(16), None])
    def test_rejected_not_coerced(self, system, value):
        with pytest.raises(ScheduleError, match="segments_per_phase") as err:
            system.discretize(value)
        assert repr(value) in str(err.value)
        with pytest.raises(ScheduleError):
            discretization_fingerprint(system, value)

    @pytest.mark.parametrize("value", [[16], (16, 16, 16), np.array([16])])
    def test_wrong_length_names_the_value(self, system, value):
        with pytest.raises(ScheduleError,
                           match="segment counts for 2 phases") as err:
            system.discretize(value)
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("value", [0, -1, [16, 0]])
    def test_counts_below_one_rejected(self, system, value):
        with pytest.raises(ScheduleError, match=">= 1"):
            system.discretize(value)

    def test_every_spelling_is_one_key_and_one_context(self, system):
        spellings = [64, np.int64(64), [64, 64], (64, 64),
                     np.array([64, 64])]
        keys = {discretization_fingerprint(system, value)
                for value in spellings}
        assert len(keys) == 1
        clear_sweep_contexts()
        contexts = {id(sweep_context_for(system, value))
                    for value in spellings}
        assert len(contexts) == 1
        assert len(context_module._REGISTRY) == 1

    def test_spellings_discretize_alike(self, system):
        want = system.discretize(16)
        for value in (np.int64(16), [16, 16], np.array([16, 16])):
            got = system.discretize(value)
            assert np.array_equal(got.grid, want.grid)
            assert [(r.start, r.stop) for r in got.runs] == [
                (r.start, r.stop) for r in want.runs]

    def test_distinct_counts_keep_distinct_keys(self, system):
        keys = {discretization_fingerprint(system, value)
                for value in (64, 32, [64, 32], [32, 64])}
        assert len(keys) == 4


class TestSampledSegmentCount:
    """A sampled system's count is validated as one phase's, >= 2."""

    @pytest.mark.parametrize("value", [16.0, "16", True, np.float64(16.0),
                                       None, [16, 16], [16.0]])
    def test_rejected_not_coerced(self, value):
        system = _sampled_system()
        with pytest.raises(ScheduleError) as err:
            system.discretize(value)
        assert repr(value) in str(err.value)
        with pytest.raises(ScheduleError):
            discretization_fingerprint(system, value)

    @pytest.mark.parametrize("value", [1, [1], np.array([1])])
    def test_needs_two_segments(self, value):
        with pytest.raises(ScheduleError, match="at least 2") as err:
            _sampled_system().discretize(value)
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("value", [np.int64(16), [16], (16,),
                                       np.array([16])])
    def test_fingerprint_spellings_discretize(self, value):
        system = _sampled_system()
        want = system.discretize(16)
        got = system.discretize(value)
        assert np.array_equal(got.grid, want.grid)
        assert all(np.array_equal(a.phi, b.phi)
                   for a, b in zip(got.runs, want.runs))
        assert (discretization_fingerprint(system, value)
                == discretization_fingerprint(system, 16))


# -- preflight on broken chains built from segment lists ---------------------

def _unit_system():
    """Two 1-second phases on exact binary times (4 segments each)."""
    return PiecewiseLTISystem(phases=[
        Phase("p1", 1.0, np.array([[-1.0, 0.0], [0.5, -2.0]]), np.eye(2),
              end_jump=np.array([[0.5, 0.0], [0.0, 1.0]])),
        Phase("p2", 1.0, np.array([[-3.0, 1.0], [0.0, -1.0]]),
              np.array([[1.0], [0.5]]))])


def _rebuilt(segments, period=2.0):
    return PeriodDiscretization(segments=segments, period=period,
                                n_states=2)


def _findings(report, prefix):
    return [(f.code, str(f.severity), f.message, f.data)
            for f in report.findings if f.code.startswith(prefix)]


class TestBrokenChains:
    def test_gap_is_refused_at_construction(self):
        segments = list(_unit_system().discretize(4).segments)
        segments[2] = replace(segments[2], t_start=0.625)
        with pytest.raises(ReproError) as err:
            _rebuilt(segments)
        assert str(err.value) == "segment chain has a gap at t=0.625"
        segments[2] = replace(segments[2], t_start=0.5)
        segments[-1] = replace(segments[-1], t_end=2.5)
        with pytest.raises(ReproError) as err:
            _rebuilt(segments)
        assert str(err.value) == ("segments cover [0, 2.5], expected "
                                  "period 2.0")

    def test_non_positive_durations_itemized(self):
        segments = list(_unit_system().discretize(4).segments)
        segments[2] = replace(segments[2], t_end=0.375)
        segments[3] = replace(segments[3], t_start=0.375)
        segments[5] = replace(segments[5], t_end=1.25)
        segments[6] = replace(segments[6], t_start=1.25)
        report = preflight_report(_rebuilt(segments))
        assert _findings(report, "schedule") == [
            ("schedule-duration", "error",
             "segment 2 ('p1') has non-positive duration -0.125",
             {"segment": 2, "duration": -0.125}),
            ("schedule-duration", "error",
             "segment 5 ('p2') has non-positive duration 0",
             {"segment": 5, "duration": 0.0}),
        ]

    def test_non_finite_runs_itemized_then_suppressed(self):
        system = _unit_system()
        segments = list(system.discretize(16).segments)
        segments[15].jump[0, 1] = np.inf  # p1's end jump
        segments[16].phi[0, 0] = np.nan  # shared by all 16 of p2
        segments[16].a_matrix[1, 1] = np.nan  # p2's A
        report = preflight_report(_rebuilt(segments))
        want = [(15, "jump")]
        for k in range(16, 20):
            want += [(k, "propagator"), (k, "a-matrix")]
        assert _findings(report, "non-finite") == [
            ("non-finite-propagator", "error",
             f"segment {k} ('{'p1' if k < 16 else 'p2'}') has non-finite "
             f"entries in its {part}", {"segment": k, "part": part})
            for k, part in want[:8]] + [
            ("non-finite-propagator", "error",
             "... and 25 further segments with non-finite entries",
             {"suppressed": 25})]
        assert [f.code for f in report.findings][-1] == "stability-skipped"


class TestConstruction:
    def test_runs_must_tile_the_segments(self):
        disc = _unit_system().discretize(4)
        first, second = disc.runs
        with pytest.raises(ReproError, match="does not continue"):
            disc.with_runs([first, replace(second, start=5)])
        with pytest.raises(ReproError, match="cover 4 of 8"):
            disc.with_runs([first])

    def test_segments_or_runs_not_both(self):
        disc = _unit_system().discretize(4)
        with pytest.raises(ReproError, match="not both"):
            PeriodDiscretization(list(disc.segments), period=2.0,
                                 n_states=2, runs=disc.runs,
                                 t_start=disc.t_start, t_end=disc.t_end)
        with pytest.raises(ReproError, match="empty discretization"):
            PeriodDiscretization([], period=2.0, n_states=2)

    def test_times_are_read_only_and_shared(self):
        disc = _unit_system().discretize(4)
        with pytest.raises(ValueError):
            disc.t_end[0] = 0.5
        derived = disc.with_runs(disc.runs)
        assert derived.t_start is disc.t_start
        assert derived.t_end is disc.t_end
