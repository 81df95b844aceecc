"""Parity battery of the parameter-batched corner sweep (DESIGN.md §12).

The contract under test: ``corner_psd_sweep`` (and its public face
``NoiseAnalysis.psd_corners``) computes, corner for corner, the same
double-sided PSD samples that M independent ``psd_sweep`` calls would
produce —

* ``M = 1`` with a trivial corner is **bit-identical** to
  ``psd_sweep(solver="spectral-batch")``;
* ``M > 1`` matches M independent member sweeps over the same derived
  contexts to ``PARAM_BATCH_PARITY_RTOL`` (measured: ~3e-15);
* intensity corners derived from their dynamics root stay within
  ``CORNER_INTENSITY_RESTACK_RTOL`` of fresh per-corner rebuilds (two
  valid roundings of the same rescaled Gramians, amplified by the
  fixed-point solve);
* budget-skipped chunks and non-finite frequencies NaN exactly the
  right ``(corner, frequency)`` cells with per-corner failure records;
* the context registry's family salt keeps corner-sweep cache entries
  from ever aliasing a plain sweep's.
"""

import numpy as np
import pytest

import repro.mft.executor as executor
from repro.circuits import (
    CornerSpec,
    ParameterGrid,
    ScLowpassParams,
    scale_system_noise,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.diagnostics.budget import SweepBudget
from repro.errors import ReproError
from repro.mft import context as context_module
from repro.mft.context import (
    clear_sweep_contexts,
    registry_stats,
    sweep_context_for,
)
from repro.mft.corners import (
    CornerBatchAnalyzer,
    CornerSweepResult,
    _build_members,
    corner_psd_sweep,
)
from repro.mft.engine import MftNoiseAnalyzer
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
        # Rebuild the members (fresh contexts on the same systems) and
        # sweep each independently.
        members = _build_members(rc_system, mixed_grid, 0, SPP, None)
        for m, member in enumerate(members):
            reference = member.psd_sweep(freqs, solver="spectral-batch")
            scale = np.max(np.abs(reference.psd))
            worst = np.max(np.abs(batched.values[m] - reference.psd))
            assert worst <= PARAM_BATCH_PARITY_RTOL * scale, (
                f"corner {mixed_grid.names[m]}: {worst / scale:.3e}")

    def test_derived_true_within_restack_tolerance_of_rebuilds(
            self, rc_system, freqs):
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

    def test_per_source_scales_get_their_own_kernel_row(
            self, rc_system, freqs):
        # A per-source map cannot share the root's row; it must still
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
        members = _build_members(rc_system, grid, 0, SPP, None)
        member_context = members[0].context
        assert member_context is not plain, (
            "the family salt must separate corner entries from the "
            "plain sweep's, even for an identical system fingerprint")
        # ... and the plain entry is still served to plain callers.
        assert sweep_context_for(rc_system, SPP) is plain

    def test_rerun_hits_family_entries_without_new_misses(
            self, rc_system, mixed_grid, freqs):
        # Roots a caller registers under the family hash are reused by
        # every rerun: one hit per dynamics root, no miss, and nothing
        # inserted (intensity members derive from their root).
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
        members = _build_members(rc_system, mixed_grid, 0, SPP, None)
        for member, corner in zip(members, mixed_grid.corners):
            context = member.context
            root = getattr(context, "parent", context)
            assert root is roots[corner.overrides_key()]
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


class TestAnalyzerValidation:
    def test_member_grid_length_mismatch_rejected(
            self, rc_system, mixed_grid):
        clear_sweep_contexts()
        members = _build_members(rc_system, mixed_grid, 0, SPP, None)
        with pytest.raises(ReproError, match="4 corners"):
            CornerBatchAnalyzer(members[:2], mixed_grid)
        with pytest.raises(ReproError, match="at least one"):
            CornerBatchAnalyzer([], mixed_grid)

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
    per-source scaling), so each dynamics group stacks two kernel rows.

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
        # Each dynamics group stacks 2 rows (the shared uniform row and
        # the per-source row), each 1 + n_sources wide when attributed:
        # a cap for 3 frequencies of that stack splits 12 frequencies
        # into 4 chunks of 3 whole frequency slices.
        clear_sweep_contexts()
        whole = self._sweep(lowpass_family, lowpass_freqs,
                            attribute_sources=True)
        context = sweep_context_for(sc_lowpass_system().system, SPP)
        n_seg, n = context.structure.n_segments, context.structure.n_states
        row_bytes = 2 * (1 + context.n_sources) * n_seg * n * 16
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
