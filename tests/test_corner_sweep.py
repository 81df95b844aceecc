"""Parity battery of the parameter-batched corner sweep (DESIGN.md §12).

The contract under test: ``corner_psd_sweep`` (and its public face
``NoiseAnalysis.psd_corners``) computes, corner for corner, the same
double-sided PSD samples that M independent ``psd_sweep`` calls would
produce —

* ``M = 1`` with a trivial corner is **bit-identical** to
  ``psd_sweep(solver="spectral-batch")``;
* an intensity corner is the linear map of its dynamics root's
  ``[total, source…]`` rows: a uniform corner is α times its root's own
  sweep bit for bit, a per-source corner reads ``α_k·S_k`` within
  1e-14 of max|PSD| of a plain attributed sweep of the root, and a
  root solves ``1 + n_sources`` kernel rows, or one when no corner on
  it reads its source rows;
* intensity corners stay within ``CORNER_INTENSITY_RESTACK_RTOL`` of
  fresh rebuilds of the rescaled circuits (two valid roundings of the
  same rescaled Gramians, amplified by the fixed-point solve);
* a frequency a root's batched solve rejects is rescued once for every
  corner on the root, each corner reading its map of the rescued rows;
* budget-skipped chunks and non-finite frequencies NaN exactly the
  right ``(corner, frequency)`` cells with per-corner failure records;
* the context registry's family salt keeps corner-sweep cache entries
  from ever aliasing a plain sweep's.
"""

import json

import numpy as np
import pytest

import repro.mft.executor as executor
from repro.circuits import (
    CornerSpec,
    ParameterGrid,
    ScIntegratorParams,
    ScLowpassParams,
    scale_system_noise,
    sc_integrator_system,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.diagnostics.budget import SweepBudget
from repro.diagnostics.fallback import FallbackPolicy
from repro.diagnostics.report import FrequencyFailure
from repro.errors import ReproError
from repro.linalg.lyapunov import fixed_point_condition
from repro.mft import context as context_module
from repro.mft import corners as corners_module
from repro.mft.context import (
    clear_sweep_contexts,
    registry_stats,
    sweep_context_for,
)
from repro.mft.corners import (
    CornerSweepResult,
    _build_roots,
    corner_psd_sweep,
)
from repro.mft.engine import MftNoiseAnalyzer
from repro.obs import Recorder
from repro.tolerances import (
    CORNER_INTENSITY_RESTACK_RTOL,
    PARAM_BATCH_PARITY_RTOL,
)

SPP = 16
N_FREQS = 8


@pytest.fixture
def freqs():
    return np.linspace(100.0, 4e4, N_FREQS)


@pytest.fixture
def mixed_grid(rc_params):
    """4 corners spanning both axes: 2 dynamics × 2 intensities."""
    return ParameterGrid.cross(
        dynamics={"nom": {}, "chi": {"capacitance": 1.2e-9}},
        intensities={"nom": 1.0, "hot": 1.2},
        builder=switched_rc_system, base_params=rc_params)


def _independent_reference(rc_system, corner, freqs):
    """One corner swept through a freshly built analyzer (no family)."""
    scales = corner.resolved_scales(None, 1)
    system = (rc_system if corner.uniform_scale == 1.0
              else scale_system_noise(rc_system, scales))
    analyzer = MftNoiseAnalyzer(system, segments_per_phase=SPP)
    return analyzer.psd_sweep(freqs, solver="spectral-batch")


class TestCornerSpec:
    def test_empty_name_rejected(self):
        with pytest.raises(ReproError, match="non-empty"):
            CornerSpec(name="")

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_bad_scalar_scale_rejected(self, scale):
        with pytest.raises(ReproError, match="finite and positive"):
            CornerSpec(name="bad", noise_scale=scale)

    def test_bad_mapped_scale_rejected(self):
        with pytest.raises(ReproError, match="finite and positive"):
            CornerSpec(name="bad", noise_scale={"r": -0.5})

    def test_temperature_corner_scales_psd_linearly(self):
        corner = CornerSpec.temperature(330.0)
        assert corner.intensity_only
        assert corner.uniform_scale == pytest.approx(1.1)
        assert corner.name == "T=330K"
        with pytest.raises(ReproError, match="positive"):
            CornerSpec.temperature(-10.0)

    def test_resolved_scales_by_label_index_and_unknown(self):
        corner = CornerSpec(name="mixed",
                            noise_scale={"r_on": 2.0, 1: 3.0})
        scales = corner.resolved_scales(["r_on", "op"], 2)
        assert scales.tolist() == [2.0, 3.0]
        assert corner.uniform_scale is None
        unknown = CornerSpec(name="bad", noise_scale={"nope": 2.0})
        with pytest.raises(ReproError, match="unknown noise source"):
            unknown.resolved_scales(["r_on"], 1)


class TestParameterGrid:
    def test_empty_grid_rejected(self):
        with pytest.raises(ReproError, match="at least one"):
            ParameterGrid([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            ParameterGrid([CornerSpec(name="a"), CornerSpec(name="a")])

    def test_overrides_without_builder_rejected(self):
        with pytest.raises(ReproError, match="builder"):
            ParameterGrid([CornerSpec(name="a", overrides={"c": 1.0})])

    def test_cross_is_dynamics_major(self, mixed_grid):
        assert mixed_grid.names == ["nom/nom", "nom/hot",
                                    "chi/nom", "chi/hot"]
        with pytest.raises(ReproError, match="at least one"):
            ParameterGrid.cross({}, {"nom": 1.0})

    def test_build_model_cached_per_dynamics_point(self, mixed_grid):
        assert mixed_grid.build_model(0) is mixed_grid.build_model(1)
        assert mixed_grid.build_model(2) is mixed_grid.build_model(3)
        assert (mixed_grid.build_model(0)
                is not mixed_grid.build_model(2))

    def test_builderless_nominal_corner_builds_none(self):
        grid = ParameterGrid([CornerSpec(name="hot", noise_scale=1.5)])
        assert grid.build_model(0) is None

    def test_family_hash_sensitive_to_every_corner_field(self, rc_params):
        base = ParameterGrid([CornerSpec(name="a")],
                             base_params=rc_params)
        renamed = ParameterGrid([CornerSpec(name="b")],
                                base_params=rc_params)
        rescaled = ParameterGrid(
            [CornerSpec(name="a", noise_scale=2.0)],
            base_params=rc_params)
        hashes = {base.family_hash(), renamed.family_hash(),
                  rescaled.family_hash()}
        assert len(hashes) == 3

    def test_mismatch_is_seed_deterministic(self, rc_params):
        kwargs = dict(fields=["capacitance"], sigma=0.05, n_corners=3,
                      builder=switched_rc_system, base_params=rc_params)
        a = ParameterGrid.mismatch(seed=7, **kwargs)
        b = ParameterGrid.mismatch(seed=7, **kwargs)
        c = ParameterGrid.mismatch(seed=8, **kwargs)
        assert ([s.overrides for s in a] == [s.overrides for s in b])
        assert ([s.overrides for s in a] != [s.overrides for s in c])
        assert a.names == ["mc000", "mc001", "mc002"]

    def test_mismatch_validation(self, rc_params):
        with pytest.raises(ReproError, match="builder"):
            ParameterGrid.mismatch(["capacitance"], 0.05, 2, seed=1)
        with pytest.raises(ReproError, match="field"):
            ParameterGrid.mismatch([], 0.05, 2, seed=1,
                                   builder=switched_rc_system,
                                   base_params=rc_params)
        with pytest.raises(ReproError, match="n_corners"):
            ParameterGrid.mismatch(["capacitance"], 0.05, 0, seed=1,
                                   builder=switched_rc_system,
                                   base_params=rc_params)


class TestScaleSystemNoise:
    def test_psd_is_linear_in_uniform_scale(self, rc_system, freqs):
        clear_sweep_contexts()
        base = MftNoiseAnalyzer(rc_system, segments_per_phase=SPP)
        scaled = MftNoiseAnalyzer(scale_system_noise(rc_system, 2.0),
                                  segments_per_phase=SPP)
        ref = base.psd_sweep(freqs).psd
        hot = scaled.psd_sweep(freqs).psd
        np.testing.assert_allclose(hot, 2.0 * ref, rtol=1e-12)

    def test_rejects_bad_scales_and_systems(self, rc_system):
        with pytest.raises(ReproError, match="finite and positive"):
            scale_system_noise(rc_system, 0.0)
        with pytest.raises(ReproError, match="phase-based"):
            scale_system_noise(object(), 2.0)
        with pytest.raises(ReproError, match="noise scales"):
            scale_system_noise(rc_system, np.ones(5))


class TestParityBattery:
    # The repeated grid sends the plain sweep through the stacked step's
    # frequency union too: each repeat reads its frequency's one solve.
    @pytest.mark.parametrize("freqs", [
        np.linspace(100.0, 4e4, N_FREQS),
        np.array([100.0, 5e3, 100.0, 2e4, 5e3, 4e4, 100.0]),
    ], ids=["unique", "repeated"])
    def test_m1_trivial_corner_bit_identical_to_psd_sweep(
            self, rc_system, freqs):
        clear_sweep_contexts()
        grid = ParameterGrid([CornerSpec(name="nom")])
        batched = corner_psd_sweep(rc_system, grid, freqs,
                                   segments_per_phase=SPP)
        reference = MftNoiseAnalyzer(
            rc_system, segments_per_phase=SPP).psd_sweep(
                freqs, solver="spectral-batch")
        assert batched.values.shape == (1, freqs.size)
        assert (batched.values[0].tobytes()
                == reference.psd.tobytes()), (
            "M=1 must be bit-identical to the plain spectral sweep")

    def test_mixed_grid_matches_independent_member_sweeps(
            self, rc_system, mixed_grid, freqs):
        clear_sweep_contexts()
        batched = corner_psd_sweep(rc_system, mixed_grid, freqs,
                                   segments_per_phase=SPP)
        # Rebuild the roots (fresh contexts on the same systems), sweep
        # each independently, and scale by each corner's intensity.
        roots = _build_roots(rc_system, mixed_grid, 0, SPP, None)
        assert len(roots) == 2
        for root in roots:
            reference = root.analyzer.psd_sweep(freqs,
                                                solver="spectral-batch")
            for m, alpha in zip(root.corners, root.scales):
                want = alpha * reference.psd
                scale = np.max(np.abs(want))
                worst = np.max(np.abs(batched.values[m] - want))
                assert worst <= PARAM_BATCH_PARITY_RTOL * scale, (
                    f"corner {mixed_grid.names[m]}: {worst / scale:.3e}")

    def test_uniform_corner_matches_fresh_rebuild(self, rc_system, freqs):
        grid = ParameterGrid([CornerSpec(name="nom"),
                              CornerSpec(name="hot", noise_scale=1.3)])
        clear_sweep_contexts()
        batched = corner_psd_sweep(rc_system, grid, freqs,
                                   segments_per_phase=SPP)
        for m, corner in enumerate(grid.corners):
            clear_sweep_contexts()
            reference = _independent_reference(rc_system, corner, freqs)
            scale = np.max(np.abs(reference.psd))
            worst = np.max(np.abs(batched.values[m] - reference.psd))
            assert worst <= CORNER_INTENSITY_RESTACK_RTOL * scale, (
                f"corner {corner.name}: {worst / scale:.3e}")

    def test_per_source_corner_matches_fresh_rebuild(self, rc_system, freqs):
        # A per-source corner reads its root's source rows; it must
        # match its own fresh rebuild through the linearity of the PSD
        # in each source intensity.
        corner = CornerSpec(name="one-source", noise_scale={0: 1.7})
        grid = ParameterGrid([CornerSpec(name="nom"), corner])
        clear_sweep_contexts()
        batched = corner_psd_sweep(rc_system, grid, freqs,
                                   segments_per_phase=SPP)
        clear_sweep_contexts()
        reference = _independent_reference(rc_system, corner, freqs)
        scale = np.max(np.abs(reference.psd))
        worst = np.max(np.abs(batched.values[1] - reference.psd))
        assert worst <= CORNER_INTENSITY_RESTACK_RTOL * scale



# -- intensity corners: a linear map of their root's rows ----------------------

MAP_SPP = 64
MAP_FREQS = np.linspace(50.0, 1.9e3, 32)


def _lowpass_intensity_family():
    """SC low-pass: nominal, 5 uniform and 10 per-source corners, with
    every scale drawn from [0.5, 2]."""
    rng = np.random.default_rng(36)
    n_src = len(sc_lowpass_system().noise_labels)
    corners = [CornerSpec(name="nom")]
    corners += [CornerSpec(name=f"u{k}", noise_scale=float(alpha))
                for k, alpha in enumerate(rng.uniform(0.5, 2.0, 5))]
    corners += [CornerSpec(name=f"s{k}", noise_scale=dict(
                    enumerate(rng.uniform(0.5, 2.0, n_src).tolist())))
                for k in range(10)]
    return ParameterGrid(corners)


def _batch_rows(recorder):
    """The ``n_rows`` tag of every ``spectral.batch`` span, in order."""
    return [span.tags["n_rows"] for span in recorder.spans
            if span.name == "spectral.batch"]


class TestIntensityMap:
    """Each intensity corner reads α times its root's rows: no solve,
    context or kernel row of its own."""

    @pytest.fixture(scope="class")
    def root_sweep(self):
        """C: one plain attributed spectral sweep of the root."""
        analyzer = MftNoiseAnalyzer(sc_lowpass_system().system,
                                    segments_per_phase=MAP_SPP)
        return analyzer.psd_sweep(MAP_FREQS, solver="spectral-batch",
                                  attribute_sources=True)

    def test_corners_are_alpha_times_the_root_rows(self, root_sweep):
        family = _lowpass_intensity_family()
        model = sc_lowpass_system()
        plain = corner_psd_sweep(model, family, MAP_FREQS,
                                 segments_per_phase=MAP_SPP)
        attributed = corner_psd_sweep(model, family, MAP_FREQS,
                                      segments_per_phase=MAP_SPP,
                                      attribute_sources=True)
        assert attributed.values.tobytes() == plain.values.tobytes()
        sources = root_sweep.budget.contributions
        peak = np.max(np.abs(plain.values))
        for m, corner in enumerate(family.corners):
            alpha = corner.resolved_scales(None, sources.shape[0])
            rows = alpha[:, None] * sources
            budget = attributed.budgets[corner.name]
            assert (np.max(np.abs(budget.contributions - rows))
                    <= 1e-14 * peak), corner.name
            if corner.uniform_scale is None:
                total = rows.sum(axis=0)
            else:
                total = corner.uniform_scale * root_sweep.psd
                assert (budget.contributions.tobytes()
                        == (corner.uniform_scale * sources).tobytes())
            assert np.max(np.abs(plain.values[m] - total)) <= 1e-14 * peak, (
                corner.name)

    def test_uniform_corners_bit_for_bit_alpha_times_root(self):
        # An all-uniform family reads alpha times the root's one kernel
        # row, bit for bit, as when it shared that row.
        family = ParameterGrid(
            [corner for corner in _lowpass_intensity_family().corners
             if corner.uniform_scale is not None])
        assert len(family) == 6
        model = sc_lowpass_system()
        root = MftNoiseAnalyzer(model.system, segments_per_phase=MAP_SPP)
        reference = root.psd_sweep(MAP_FREQS, solver="spectral-batch")
        result = corner_psd_sweep(model, family, MAP_FREQS,
                                  segments_per_phase=MAP_SPP)
        for m, corner in enumerate(family.corners):
            assert (result.values[m].tobytes()
                    == (corner.uniform_scale * reference.psd).tobytes())

    def test_root_solves_total_and_source_rows(self):
        recorder = Recorder()
        corner_psd_sweep(sc_lowpass_system(), _lowpass_intensity_family(),
                         MAP_FREQS, segments_per_phase=MAP_SPP,
                         recorder=recorder)
        n_src = len(sc_lowpass_system().noise_labels)
        assert _batch_rows(recorder) == [1 + n_src] == [6]

    @pytest.mark.parametrize("attribute, rows", [(False, 1), (True, 2)])
    def test_uniform_roots_solve_one_row_unless_attributed(
            self, rc_system, mixed_grid, freqs, attribute, rows):
        recorder = Recorder()
        corner_psd_sweep(rc_system, mixed_grid, freqs,
                         segments_per_phase=SPP, recorder=recorder,
                         attribute_sources=attribute)
        assert _batch_rows(recorder) == [rows, rows]


# -- rescue on an intensity family ---------------------------------------------

#: Below the SC integrator's cond(I − e^{−jωT}M₀) at the low frequencies
#: of ``RESCUE_FREQS`` (~14 at 2 kHz), above it at the high ones (~2.4).
RESCUE_CONDITION_LIMIT = 3.0
RESCUE_FREQS = np.linspace(1e3, 40e3, 8)


def _integrator_family():
    """SC integrator: 2 dynamics × (nominal, uniform, per-source)."""
    return ParameterGrid.cross(
        {"nom": {}, "leaky": {"leak": 0.1}},
        {"nom": 1.0, "hot": 1.3, "skew": {0: 1.7, 2: 0.6}},
        builder=sc_integrator_system, base_params=ScIntegratorParams())


def _roots_with_policy(monkeypatch, policy):
    """The roots the corner sweeps that follow build, each on ``policy``."""
    roots = []
    build = corners_module._build_roots

    def build_with_policy(*args, **kwargs):
        built = build(*args, **kwargs)
        for root in built:
            root.analyzer.fallback = policy
        roots.extend(built)
        return built

    monkeypatch.setattr(corners_module, "_build_roots", build_with_policy)
    return roots


def _attempt_log(result_info):
    return sorted((a.frequency, a.strategy, a.success)
                  for a in result_info["fallback_attempts"])


class TestRescueOnIntensityFamily:
    def _sweep(self, monkeypatch, policy, attribute):
        roots = _roots_with_policy(monkeypatch, policy)
        result = corner_psd_sweep(sc_integrator_system(),
                                  _integrator_family(), RESCUE_FREQS,
                                  segments_per_phase=SPP,
                                  attribute_sources=attribute)
        assert len(roots) == 2
        # Each root swept alone, attributed, on the same policy.
        references = [root.analyzer.psd_sweep(
            RESCUE_FREQS, solver="spectral-batch", attribute_sources=True)
            for root in roots]
        return result, roots, references

    @pytest.mark.parametrize("attribute", [False, True])
    def test_rescued_cells_are_the_map_of_the_root_rescue(
            self, monkeypatch, attribute):
        policy = FallbackPolicy(condition_limit=RESCUE_CONDITION_LIMIT)
        result, roots, references = self._sweep(monkeypatch, policy,
                                                attribute)
        assert np.all(np.isfinite(result.values))
        nominal = roots[0].analyzer.context
        period = nominal.structure.period
        conds = [fixed_point_condition(
            np.exp(-2j * np.pi * f * period) * nominal.monodromy)
            for f in RESCUE_FREQS]
        rejected = np.array(conds) > RESCUE_CONDITION_LIMIT
        assert 0 < rejected.sum() < RESCUE_FREQS.size
        for root, reference in zip(roots, references):
            assert "mft-regularized" in {
                a.strategy for a in reference.info["fallback_attempts"]}
            sources = reference.budget.contributions
            for m, scale in zip(root.corners, root.scales):
                alpha = np.broadcast_to(scale, sources.shape[:1])
                rows = alpha[:, None] * sources
                want = (rows.sum(axis=0) if np.ndim(scale)
                        else scale * reference.psd)
                peak = np.max(np.abs(want))
                assert np.max(np.abs(result.values[m] - want)) <= (
                    1e-14 * peak)
                if attribute:
                    budget = result.budgets[result.corner_names[m]]
                    assert np.max(np.abs(budget.contributions - rows)) <= (
                        1e-14 * peak)
        # The chain ran once per (root, frequency), as in each root's
        # own sweep, not once per corner.
        assert _attempt_log(result.info) == sorted(
            entry for reference in references
            for entry in _attempt_log(reference.info))

    def test_exhausted_rescue_fails_every_corner_on_the_root(
            self, monkeypatch):
        policy = FallbackPolicy(condition_limit=RESCUE_CONDITION_LIMIT,
                                enable_regularized=False,
                                enable_brute_force=False)
        result, roots, references = self._sweep(monkeypatch, policy, False)
        for root, reference in zip(roots, references):
            want = [(f.index, f.stage, f.error)
                    for f in reference.info["failures"]]
            assert want and {stage for _i, stage, _e in want} == {"solve"}
            for m in root.corners:
                name = result.corner_names[m]
                got = [(f.index, f.stage, f.error)
                       for f in result.failures.get(name, [])]
                assert got == want, name
                assert np.array_equal(np.isnan(result.values[m]),
                                      np.isnan(reference.psd)), name
        assert _attempt_log(result.info) == sorted(
            entry for reference in references
            for entry in _attempt_log(reference.info))

class TestFailureGeometry:
    """Budgets and bad inputs NaN exactly the right cells."""

    def test_non_finite_frequencies_fail_per_corner(
            self, rc_system, mixed_grid, freqs):
        clear_sweep_contexts()
        bad = freqs.copy()
        bad[2] = np.inf
        bad[5] = np.nan
        result = corner_psd_sweep(rc_system, mixed_grid, bad,
                                  segments_per_phase=SPP)
        nan_cols = np.isnan(result.values)
        assert np.all(nan_cols[:, [2, 5]])
        assert not np.any(np.isnan(
            np.delete(result.values, [2, 5], axis=1)))
        for name in mixed_grid.names:
            records = result.failures[name]
            assert [f.index for f in records] == [2, 5]
            assert {f.stage for f in records} == {"input"}
        with pytest.raises(ReproError, match="finite"):
            corner_psd_sweep(rc_system, mixed_grid, bad,
                             segments_per_phase=SPP, on_failure="raise")

    def test_skipped_chunk_nans_whole_frequency_slices(
            self, rc_system, mixed_grid, freqs, first_chunk_budget):
        # Chunks hold chunk_size frequencies x all M corners; a budget
        # spent after the first chunk must NaN frequencies 3.. for
        # *every* corner and nothing else.
        clear_sweep_contexts()
        result = corner_psd_sweep(rc_system, mixed_grid, freqs,
                                  segments_per_phase=SPP, chunk_size=3,
                                  budget=first_chunk_budget)
        assert np.all(np.isnan(result.values[:, 3:]))
        assert np.all(np.isfinite(result.values[:, :3]))
        for name in mixed_grid.names:
            records = result.failures[name]
            assert [f.index for f in records] == list(range(3, freqs.size))
            assert {f.stage for f in records} == {"budget"}

    def test_spent_budget_records_per_corner_budget_failures(
            self, rc_system, mixed_grid, freqs):
        clear_sweep_contexts()
        result = corner_psd_sweep(
            rc_system, mixed_grid, freqs, segments_per_phase=SPP,
            budget=SweepBudget(wall_clock_seconds=0.0))
        assert np.all(np.isnan(result.values))
        for name in mixed_grid.names:
            records = result.failures[name]
            assert [f.index for f in records] == list(range(freqs.size))
            assert {f.stage for f in records} == {"budget"}


class TestRegistryFamilyIsolation:
    """Satellite: family-salted fingerprints never alias plain entries."""

    def test_corner_contexts_do_not_alias_plain_sweep_context(
            self, rc_system):
        clear_sweep_contexts()
        plain = sweep_context_for(rc_system, SPP)
        grid = ParameterGrid([CornerSpec(name="nom")])
        roots = _build_roots(rc_system, grid, 0, SPP, None)
        member_context = roots[0].analyzer.context
        assert member_context is not plain, (
            "the family salt must separate corner entries from the "
            "plain sweep's, even for an identical system fingerprint")
        # ... and the plain entry is still served to plain callers.
        assert sweep_context_for(rc_system, SPP) is plain

    def test_rerun_hits_family_entries_without_new_misses(
            self, rc_system, mixed_grid, freqs):
        # Roots a caller registers under the family hash are reused by
        # every rerun: one hit per dynamics root, no miss, and nothing
        # inserted (intensity corners map their root's rows).
        clear_sweep_contexts()
        family = mixed_grid.family_hash()
        roots = {}
        for index, corner in enumerate(mixed_grid.corners):
            system = mixed_grid.build_model(index)
            roots[corner.overrides_key()] = sweep_context_for(
                system, SPP, family=family)
        registered = dict(context_module._REGISTRY)
        assert len(registered) == 2
        for _rerun in range(2):
            before = registry_stats.snapshot()
            corner_psd_sweep(rc_system, mixed_grid, freqs,
                             segments_per_phase=SPP)
            delta = registry_stats.delta(before, registry_stats.snapshot())
            assert delta["hits"] == {"context": 2}
            assert delta["misses"] == {}
            assert dict(context_module._REGISTRY) == registered
        for root in _build_roots(rc_system, mixed_grid, 0, SPP, None):
            for m in root.corners:
                corner = mixed_grid.corners[m]
                assert root.analyzer.context is roots[corner.overrides_key()]
        clear_sweep_contexts()


class TestCornerSweepResultViews:
    @pytest.fixture
    def result(self, rc_system, mixed_grid, freqs):
        clear_sweep_contexts()
        return corner_psd_sweep(rc_system, mixed_grid, freqs,
                                segments_per_phase=SPP)

    def test_corner_view_by_name_and_index(self, result, mixed_grid):
        by_name = result.corner("chi/hot")
        by_index = result.corner(3)
        assert (by_name.psd.tobytes() == by_index.psd.tobytes())
        assert by_name.info["corner"] == "chi/hot"
        assert by_name.info["failures"] == []
        with pytest.raises(ReproError, match="unknown corner"):
            result.corner("nope")
        with pytest.raises(ReproError, match="out of range"):
            result.corner(99)

    def test_worst_corners_ranked_worst_first(self, result):
        ranked = result.worst_corners()
        values = [v for _name, v in ranked]
        assert values == sorted(values, reverse=True)
        # The hot intensity corners must outrank their nominal twins.
        names = [name for name, _v in ranked]
        assert names.index("nom/hot") < names.index("nom/nom")
        at_freq = result.worst_corners(frequency=1e3)
        assert len(at_freq) == result.n_corners

    def test_worst_corners_puts_nan_only_corner_last(self, result):
        result.values[1, :] = np.nan
        ranked = result.worst_corners()
        assert ranked[-1][0] == result.corner_names[1]
        assert np.isnan(ranked[-1][1])

    def test_table_lists_every_corner(self, result, mixed_grid):
        table = result.to_table()
        for name in mixed_grid.names:
            assert name in table
        assert "peak PSD" in table
        assert len(result.to_table(limit=2).splitlines()) == 4
        assert "@ 1000" in result.to_table(frequency=1e3)

    def test_repr_mentions_shape(self, result):
        assert "4 corners x 8 frequencies" in repr(result)


class TestCornerInfo:
    def test_info_keeps_no_flat_axis_leftovers(self, rc_system,
                                               mixed_grid):
        # The flat sweep's failures, budget and report have corner-shaped
        # forms on the result; its info keeps only the sweep metadata.
        clear_sweep_contexts()
        freqs = np.linspace(100.0, 4e4, 6)
        freqs[2] = np.nan
        result = corner_psd_sweep(rc_system, mixed_grid, freqs,
                                  segments_per_phase=SPP,
                                  attribute_sources=True)
        assert all([f.index for f in records] == [2]
                   for records in result.failures.values())
        assert not any(
            isinstance(value, list) and value
            and isinstance(value[0], FrequencyFailure)
            for value in result.info.values())
        payload = result.to_json()
        for key, value in payload["info"].items():
            text = json.dumps(value)
            assert "PsdResult(" not in text, key
            assert "ContributionBudget(" not in text, key
        assert "diagnostics" not in payload["info"]
        assert set(result.info) == {
            "runtime_seconds", "solver", "segments", "negative_clipped",
            "worst_negative_psd", "fallback_attempts", "executor",
            "n_params", "family_hash"}


class TestAnalyzerValidation:
    def test_non_grid_rejected(self, rc_system, freqs):
        with pytest.raises(ReproError, match="ParameterGrid"):
            corner_psd_sweep(rc_system, ["not-a-grid"], freqs)


class TestPsdCornersApi:
    def test_public_entry_point_returns_corner_result(
            self, rc_system, mixed_grid, freqs):
        from repro.analysis import NoiseAnalysis

        clear_sweep_contexts()
        analysis = NoiseAnalysis(rc_system, segments_per_phase=SPP)
        result = analysis.psd_corners(mixed_grid, freqs)
        assert isinstance(result, CornerSweepResult)
        assert result.n_corners == 4
        assert result.info["n_params"] == 4
        assert result.info["family_hash"] == mixed_grid.family_hash()
        direct = analysis.psd_sweep(freqs, solver="spectral-batch")
        assert (result.corner("nom/nom").psd.tobytes()
                == direct.psd.tobytes())

    def test_attribution_budgets_split_per_corner(
            self, rc_system, mixed_grid, freqs):
        from repro.analysis import NoiseAnalysis

        clear_sweep_contexts()
        analysis = NoiseAnalysis(rc_system, segments_per_phase=SPP)
        plain = analysis.psd_corners(mixed_grid, freqs)
        attributed = analysis.psd_corners(mixed_grid, freqs,
                                          attribute_sources=True)
        # Attribution must not perturb the totals.
        assert (attributed.values.tobytes() == plain.values.tobytes())
        assert attributed.budgets is not None
        assert set(attributed.budgets) == set(mixed_grid.names)
        for name in mixed_grid.names:
            budget = attributed.budgets[name]
            budget.check_conservation()
            np.testing.assert_array_equal(
                budget.total,
                attributed.values[mixed_grid.names.index(name)])


# -- the default block ---------------------------------------------------------

@pytest.fixture
def lowpass_family():
    """SC low-pass corners: 2 dynamics × (2 uniform intensities + one
    per-source scaling), so each dynamics root solves its total and
    source rows.

    Four states: a one-frequency block rounds like any other (see
    ``tests/test_mft_spectral.py::TestDefaultBlock``).
    """
    base = ScLowpassParams()
    corners = []
    for dyn, overrides in (("nom", {}), ("c1hi", {"c1": 1.1 * base.c1})):
        for name, scale in (("nom", 1.0), ("hot", 1.2), ("src0", {0: 1.7})):
            corners.append(CornerSpec(name=f"{dyn}/{name}",
                                      overrides=overrides,
                                      noise_scale=scale))
    return ParameterGrid(corners, builder=sc_lowpass_system,
                         base_params=base)


def _corner_record(result):
    """Values (NaN masks included), budget rows and failure records."""
    budgets = result.budgets or {}
    return (result.values.tobytes(),
            [budgets[name].contributions.tobytes() for name in budgets],
            {name: [(f.index, f.stage, f.error) for f in records]
             for name, records in result.failures.items()})


class TestDefaultBlock:
    """A default corner sweep is one chunk of whole frequency slices,
    split only past the stack cap, with the bits of any chunking."""

    @pytest.fixture
    def lowpass_freqs(self):
        freqs = np.linspace(100.0, 12e3, 12)
        freqs[4] = np.nan
        return freqs

    def _sweep(self, family, freqs, **kwargs):
        return corner_psd_sweep(sc_lowpass_system(), family, freqs,
                                segments_per_phase=SPP, **kwargs)

    @pytest.mark.parametrize("attribute", [False, True])
    def test_default_block_matches_every_chunk_size(
            self, lowpass_family, lowpass_freqs, attribute):
        clear_sweep_contexts()
        default = self._sweep(lowpass_family, lowpass_freqs,
                              attribute_sources=attribute)
        meta = default.info["executor"]
        n_cells = len(lowpass_family) * lowpass_freqs.size
        assert (meta["chunk_size"], meta["n_chunks"]) == (n_cells, 1)
        assert all(len(records) == 1
                   for records in default.failures.values())
        for chunk in (1, 7, 64):
            chunked = self._sweep(lowpass_family, lowpass_freqs,
                                  chunk_size=chunk,
                                  attribute_sources=attribute)
            assert _corner_record(chunked) == _corner_record(default), (
                f"chunk_size={chunk}")

    def test_cap_counts_the_rows_of_the_largest_group(
            self, monkeypatch, lowpass_family, lowpass_freqs):
        # Each dynamics root stacks its 1 + n_sources rows (the total
        # and the source rows its per-source corner reads): a cap for 3
        # frequencies of that stack splits 12 frequencies into 4 chunks
        # of 3 whole frequency slices.
        clear_sweep_contexts()
        whole = self._sweep(lowpass_family, lowpass_freqs,
                            attribute_sources=True)
        context = sweep_context_for(sc_lowpass_system().system, SPP)
        n_seg, n = context.structure.n_segments, context.structure.n_states
        row_bytes = (1 + context.n_sources) * n_seg * n * 16
        monkeypatch.setattr(executor, "SPECTRAL_STACK_CAP_BYTES",
                            3 * row_bytes + row_bytes // 2)
        split = self._sweep(lowpass_family, lowpass_freqs,
                            attribute_sources=True)
        meta = split.info["executor"]
        assert meta["chunk_size"] == 3 * len(lowpass_family)
        assert meta["n_chunks"] == 4
        assert _corner_record(split) == _corner_record(whole)

    def test_default_block_is_one_budget_decision(
            self, rc_system, mixed_grid, freqs, first_chunk_budget):
        clear_sweep_contexts()
        result = corner_psd_sweep(rc_system, mixed_grid, freqs,
                                  segments_per_phase=SPP,
                                  budget=first_chunk_budget)
        assert first_chunk_budget.n_checks == 1
        assert np.all(np.isfinite(result.values))

    @pytest.mark.parametrize("value", [0, -3, 2.5])
    def test_invalid_chunk_size_rejected(self, rc_system, mixed_grid,
                                         freqs, value):
        with pytest.raises(ReproError, match="chunk_size"):
            corner_psd_sweep(rc_system, mixed_grid, freqs,
                             segments_per_phase=SPP, chunk_size=value)
