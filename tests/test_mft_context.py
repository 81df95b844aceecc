"""SweepContext caches, the bounded registry, and solve_shifted branches.

Covers the cache policy: a context holds only frequency-independent
arrays (the shifted step integrals are recomputed, bit for bit, on every
call), the module registry is lock-guarded and LRU-bounded, and the
less-travelled ``solve_shifted`` branches (``lstsq``, the condition-limit rejection,
the resolvent-vs-trapezoid crossover) agree with the reference solver.
It also pins the segment-group structure: groups are keyed on the
propagator the discretizer shares, so a uniform clock phase is one
group however its float segment lengths round.
"""

import threading

import numpy as np
import pytest

from repro.circuits import (
    SwitchedRcParams,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.errors import ReproError, SingularMatrixError
from repro.lptv.discretization import PeriodDiscretization, Segment
from repro.lptv.periodic_solve import periodic_steady_state
from repro.lptv.system import SampledLPTVSystem
from repro.mft import context as context_module
from repro.mft.context import (
    SweepContext,
    build_structure,
    clear_sweep_contexts,
    registry_stats,
    sweep_context_for,
)
from repro.mft.engine import MftNoiseAnalyzer
from repro.tolerances import SCHEDULE_TILE_RTOL

from test_mft_spectral import _sc_cascade


@pytest.fixture()
def context(rc_system):
    return SweepContext(rc_system, segments_per_phase=16)


def _forcing(context):
    analyzer = MftNoiseAnalyzer(context.system, context=context)
    return analyzer._forcing_pairs()


class TestShiftedIntegrals:
    def test_repeated_call_is_bit_identical(self, context):
        omega = 2.0 * np.pi * 1.0e3
        first = context.shifted_integrals(omega)
        context.shifted_integrals(2.0 * np.pi * 2.0e3)
        again = context.shifted_integrals(omega)
        assert len(first) == len(again)
        for entry, repeat in zip(first, again):
            for a, b in zip(entry[:4], repeat[:4]):
                assert a.tobytes() == b.tobytes()
            assert entry[4] == repeat[4]


class TestContextRegistry:
    def test_concurrent_for_system_shares_one_context(self, rc_system):
        clear_sweep_contexts()
        results = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            results.append(sweep_context_for(rc_system, 16))

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(ctx is results[0] for ctx in results)

    def test_registry_is_lru_bounded(self, monkeypatch):
        from repro.mft import context as context_module

        clear_sweep_contexts()
        monkeypatch.setattr(context_module, "_REGISTRY_LIMIT", 2)
        evicted_before = registry_stats.evictions.get("context", 0)
        systems = [
            switched_rc_system(
                SwitchedRcParams(10e3 * (i + 1), 1e-9, 5e-5, 0.5))
            for i in range(3)
        ]
        contexts = [sweep_context_for(s, 16) for s in systems]
        assert len(context_module._REGISTRY) == 2
        assert registry_stats.evictions.get("context", 0) > evicted_before
        # The oldest context fell out: requesting it again builds anew,
        # while the newest is still the cached object.
        assert sweep_context_for(systems[0], 16) is not contexts[0]
        assert sweep_context_for(systems[2], 16) is contexts[2]

    def test_registry_hit_refreshes_recency(self, monkeypatch):
        from repro.mft import context as context_module

        clear_sweep_contexts()
        monkeypatch.setattr(context_module, "_REGISTRY_LIMIT", 2)
        sys_a = switched_rc_system(SwitchedRcParams(10e3, 1e-9, 5e-5, 0.5))
        sys_b = switched_rc_system(SwitchedRcParams(20e3, 1e-9, 5e-5, 0.5))
        sys_c = switched_rc_system(SwitchedRcParams(30e3, 1e-9, 5e-5, 0.5))
        ctx_a = sweep_context_for(sys_a, 16)
        sweep_context_for(sys_b, 16)
        sweep_context_for(sys_a, 16)  # refresh A → B is now the LRU
        sweep_context_for(sys_c, 16)  # evicts B
        assert sweep_context_for(sys_a, 16) is ctx_a


def _held_bytes(contexts):
    """Bytes of cached arrays ``contexts`` hold together, each once."""
    totals = list(context_module._cumulative_bytes(contexts))
    return totals[-1] if totals else 0


def _rc(index):
    """Distinct 1-state systems whose filled contexts are equally large."""
    return switched_rc_system(
        SwitchedRcParams(10e3 * (1.0 + 0.1 * index), 1e-9, 5e-5, 0.5))


def _filled(system, segments_per_phase=16):
    """The registry's context for ``system``, warmed after registration."""
    ctx = sweep_context_for(system, segments_per_phase)
    ctx.warm_up(np.asarray(system.output_matrix)[0])
    return ctx


def _registered():
    return list(context_module._REGISTRY.values())


class TestRegistryByteBound:
    @pytest.fixture(autouse=True)
    def _cold_registry(self):
        clear_sweep_contexts()
        yield
        clear_sweep_contexts()

    def test_lru_eviction_by_bytes(self, monkeypatch):
        ctx_a = _filled(_rc(0))
        monkeypatch.setattr(context_module, "_REGISTRY_CAP_BYTES",
                            2 * _held_bytes([ctx_a]))
        ctx_b = _filled(_rc(1))
        # A and B fill the cap exactly: the miss for C evicts nothing.
        ctx_c = _filled(_rc(2))
        assert _registered() == [ctx_a, ctx_b, ctx_c]
        # B and C fill it now, so the miss for D evicts A.
        ctx_d = _filled(_rc(3))
        assert _registered() == [ctx_b, ctx_c, ctx_d]

    def test_hit_refreshes_recency(self, monkeypatch):
        ctx_a = _filled(_rc(0))
        monkeypatch.setattr(context_module, "_REGISTRY_CAP_BYTES",
                            2 * _held_bytes([ctx_a]))
        ctx_b = _filled(_rc(1))
        assert sweep_context_for(_rc(0), 16) is ctx_a  # B is now the LRU
        ctx_c = _filled(_rc(2))
        ctx_d = _filled(_rc(3))
        assert _registered() == [ctx_a, ctx_c, ctx_d]
        assert ctx_b not in _registered()

    def test_context_under_several_keys_counted_once(self, monkeypatch):
        system = sc_lowpass_system().system
        root = sweep_context_for(system, 16, family="byte-bound")
        root.warm_up(np.asarray(system.output_matrix)[0])
        for family in ("byte-bound-2", "byte-bound-3"):
            assert sweep_context_for(system, 16, family=family,
                                     build=lambda: root) is root
        # Counted entry by entry, the three entries would hold its
        # power stacks, covariance and forcing three times.
        shared = _held_bytes(_registered())
        assert 0 < shared == _held_bytes([root])
        monkeypatch.setattr(context_module, "_REGISTRY_CAP_BYTES", shared)
        sweep_context_for(_rc(0), 16)
        assert _registered()[:3] == [root] * 3

    def test_oversized_entry_stays_until_next_miss(self, monkeypatch):
        monkeypatch.setattr(context_module, "_REGISTRY_CAP_BYTES", 1)
        ctx_a = _filled(_rc(0))
        assert _held_bytes([ctx_a]) > 1
        assert sweep_context_for(_rc(0), 16) is ctx_a
        ctx_b = sweep_context_for(_rc(1), 16)
        assert _registered() == [ctx_b]

    def test_each_eviction_counted(self, monkeypatch):
        for index in range(3):
            _filled(_rc(index))
        before = registry_stats.snapshot()
        monkeypatch.setattr(context_module, "_REGISTRY_CAP_BYTES", 0)
        sweep_context_for(_rc(3), 16)
        delta = registry_stats.delta(before, registry_stats.snapshot())
        assert delta["evictions"] == {"context": 3}
        assert delta["misses"] == {"context": 1}
        assert len(_registered()) == 1

    def test_structure_counted_as_its_power_stacks(self):
        # One run per group: the stacks hold S·n² reals, as the suffix
        # products they replaced did.
        context = SweepContext(sc_lowpass_system().system,
                               segments_per_phase=16)
        struct = context.structure
        held = dict(context._retained_bytes())
        assert held == {id(stack): stack.nbytes for stack in struct.powers}
        assert sum(held.values()) == (
            struct.n_segments * struct.n_states ** 2 * 8)

    def test_cascade_sweeps_stay_within_cap(self):
        from repro.circuits.corners import scale_system_noise

        cap = context_module._REGISTRY_CAP_BYTES
        freqs = np.linspace(100.0, 7.6e3, 8)
        systems = {n: _sc_cascade(n).system for n in (4, 8, 12)}
        built = 0
        for repeat in range(5):
            for system in systems.values():
                # A new fingerprint of the same size on every request.
                jittered = scale_system_noise(system, 1.0 + repeat / 100.0)
                analyzer = MftNoiseAnalyzer(jittered)
                analyzer.psd_sweep(freqs, solver="spectral-batch")
                built += _held_bytes([analyzer.context])
                # The newest entry filled after its miss; the rest fit.
                assert _held_bytes(_registered()[:-1]) <= cap
        assert built > 2 * cap
        sweep_context_for(_rc(0), 16)
        assert _held_bytes(_registered()) <= cap


class TestRetainedBytesMemo:
    """The byte list the registry walks is memoized on each context's
    fill state, and must match a fresh walk after every lazy fill."""

    @staticmethod
    def _fresh(ctx):
        ctx._retained_memo = None
        return ctx._retained_bytes()

    def test_memo_matches_a_fresh_walk_after_each_fill(self):
        system = sc_lowpass_system().system
        l_row = np.asarray(system.output_matrix)[0]
        root = SweepContext(system, segments_per_phase=16)
        other = SweepContext(system, segments_per_phase=16)
        contexts = (root, other)
        fills = [
            lambda: root.structure,
            lambda: root.covariance,
            lambda: root.forcing_pairs(l_row),
            lambda: root.source_forcing_pairs(l_row, 0),
            lambda: other.source_forcing_pairs(l_row, 1),
            lambda: other.covariance,
            lambda: root.forcing_pairs(np.ones_like(l_row)),
        ]
        first = list(context_module._cumulative_bytes(contexts))
        for fill in fills:
            # Memoize every context's pre-fill state, then fill.
            for ctx in contexts:
                assert ctx._retained_bytes() is ctx._retained_bytes()
            fill()
            memoized = [ctx._retained_bytes() for ctx in contexts]
            assert memoized == [self._fresh(ctx) for ctx in contexts]
        last = list(context_module._cumulative_bytes(contexts))
        assert all(a < b for a, b in zip(first, last))


class TestFrequencyIndependentBytes:
    def test_mft_sweep_leaves_retained_bytes_unchanged(self):
        # Everything a context keeps is frequency independent, so a
        # warmed-up context holds the same arrays after a sweep.
        system = _sc_cascade(12).system
        context = SweepContext(system, segments_per_phase=16)
        analyzer = MftNoiseAnalyzer(system, context=context).warm_up()
        before = dict(context._retained_bytes())
        result = analyzer.psd_sweep(np.linspace(10.0, 7.6e3, 64),
                                    solver="mft")
        assert np.all(np.isfinite(result.psd))
        assert dict(context._retained_bytes()) == before


class TestRegistryConcurrency:
    def test_scans_tolerate_a_dispatcher_filling_contexts(self,
                                                          monkeypatch):
        from repro.service import JobQueue, JobSpec

        clear_sweep_contexts()
        # Unfilled contexts hold no bytes; lift the count ceiling so no
        # entry is evicted and each fingerprint keeps its one context.
        monkeypatch.setattr(context_module, "_REGISTRY_LIMIT", 10**6)
        job_systems = [_rc(index) for index in range(6)]
        specs = [JobSpec(system, np.linspace(100.0, 40e3, 24),
                         segments_per_phase=16, solver="mft",
                         attribute_sources=True)
                 for system in job_systems]
        seen = {}
        with JobQueue() as queue:
            handles = [queue.submit(spec) for spec in specs]
            index = 100
            while not all(handle.done() for handle in handles):
                # Every fresh system is a miss, and so a registry scan
                # while the dispatcher fills its contexts' dict caches.
                for system in (_rc(index), job_systems[index % 6]):
                    ctx = sweep_context_for(system, 16)
                    key = context_module.discretization_fingerprint(
                        system, 16)
                    assert seen.setdefault(key, ctx) is ctx
                index += 1
            results = [handle.wait(timeout=120.0) for handle in handles]
        assert all(np.all(np.isfinite(r.result.psd)) for r in results)
        assert index > 100
        for system in job_systems:
            key = context_module.discretization_fingerprint(system, 16)
            ctx = sweep_context_for(system, 16)
            assert seen.setdefault(key, ctx) is ctx
        # The dispatcher and this thread agreed on one context for every
        # fingerprint either of them asked for.
        registered = dict(context_module._REGISTRY)
        assert registered.keys() == seen.keys()
        assert all(registered[key] is ctx for key, ctx in seen.items())
        clear_sweep_contexts()


class TestSolveShiftedBranches:
    def test_lstsq_solver_matches_direct_on_benign_system(self, context):
        forcing = _forcing(context)
        omega = 2.0 * np.pi * 5e3
        direct = context.solve_shifted(omega, forcing)
        lstsq = context.solve_shifted(omega, forcing, solver="lstsq")
        assert lstsq.solver == "lstsq"
        np.testing.assert_allclose(lstsq.pre, direct.pre,
                                   rtol=1e-6, atol=1e-18)

    def test_condition_limit_rejection(self, context):
        # cond(I − M) >= 1 for any M, so a sub-unity limit always trips
        # the rejection branch.
        forcing = _forcing(context)
        with pytest.raises(SingularMatrixError, match="cond"):
            context.solve_shifted(2.0 * np.pi * 5e3, forcing,
                                  condition_limit=0.5)

    def test_lstsq_ignores_condition_limit(self, context):
        forcing = _forcing(context)
        solution = context.solve_shifted(2.0 * np.pi * 5e3, forcing,
                                         solver="lstsq",
                                         condition_limit=0.5)
        assert np.all(np.isfinite(solution.pre))


class TestResolventTrapezoidCrossover:
    def test_stiff_system_straddles_threshold(self):
        # A stiff RC (tiny time constant) drives ‖A−jωI‖₁h across the
        # 0.5 resolvent threshold between its on and off phases, so one
        # solve exercises both period-integral branches.
        system = switched_rc_system(
            SwitchedRcParams(100.0, 1e-9, 5e-5, 0.5))
        context = SweepContext(system, segments_per_phase=16)
        omega = 2.0 * np.pi * 1e3
        norms = [entry[4] for entry in context.shifted_integrals(omega)]
        assert any(nh > 0.5 for nh in norms), norms
        assert any(nh <= 0.5 for nh in norms), norms

    @pytest.mark.parametrize("duty", [0.02, 0.5, 0.98])
    def test_matches_reference_across_regimes(self, duty):
        system = switched_rc_system(
            SwitchedRcParams(100.0, 1e-9, 5e-5, duty))
        context = SweepContext(system, segments_per_phase=16)
        forcing = _forcing(context)
        for freq in (100.0, 5e3, 50e3):
            omega = 2.0 * np.pi * freq
            fast = context.solve_shifted(omega, forcing)
            reference = periodic_steady_state(context.disc, omega, forcing)
            scale = np.max(np.abs(reference.integral)) or 1.0
            assert np.max(np.abs(fast.integral - reference.integral)) <= (
                1e-9 * scale), f"duty={duty} f={freq}"


# -- segment groups ------------------------------------------------------------

#: Two-phase systems whose uniform segments have ulp-different float
#: lengths at 64 segments per phase.
GROUPED_SYSTEMS = {
    "sc-lowpass": lambda: sc_lowpass_system().system,
    "sc-cascade-4": lambda: _sc_cascade(4).system,
}


def _assert_members_within_tiling_tolerance(struct, disc):
    tol = SCHEDULE_TILE_RTOL * max(disc.period, 1.0)
    for group in struct.groups:
        deviation = np.abs(struct.durations[group.indices] - group.duration)
        assert np.max(deviation) <= tol


class TestSegmentGroups:
    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_one_group_per_phase(self, name):
        context = SweepContext(GROUPED_SYSTEMS[name](),
                               segments_per_phase=64)
        groups = context.structure.groups
        assert len(groups) == 2
        assert [len(g.indices) for g in groups] == [64, 64]
        # Keying on the float durations splits the same phases (into 7
        # groups on this grid): the regression the shared key removes.
        segments = context.disc.segments
        split = {(id(seg.a_matrix), seg.duration) for seg in segments}
        assert len(split) > len(groups)

    @pytest.mark.parametrize("name", sorted(GROUPED_SYSTEMS))
    def test_member_durations_within_tiling_tolerance(self, name):
        context = SweepContext(GROUPED_SYSTEMS[name](),
                               segments_per_phase=64)
        _assert_members_within_tiling_tolerance(context.structure,
                                                context.disc)

    def test_boundary_layer_grid_keeps_distinct_steps_apart(self):
        system = sc_lowpass_system().system
        disc = system.discretize(64, boundary_layer=True)
        struct = build_structure(disc)
        assert len(struct.groups) > len(system.phases)
        _assert_members_within_tiling_tolerance(struct, disc)

    def test_sampled_system_has_one_group_per_segment(self):
        system = SampledLPTVSystem(
            a_of_t=lambda t: np.array([[-1.0 - 0.5 * np.sin(t)]]),
            b_of_t=lambda _t: np.array([[1.0]]),
            period=2.0 * np.pi, n_states=1)
        context = SweepContext(system, segments_per_phase=16)
        assert len(context.structure.groups) == 16

    def test_shared_propagator_of_different_lengths_rejected(self):
        a = np.array([[-1.0]])
        b = np.array([[1.0]])
        phi = np.exp(a * 0.4)
        gram = np.array([[0.1]])
        segments = [
            Segment(t_start=0.0, t_end=0.4, phi=phi, gramian=gram,
                    b_matrix=b, jump=None, a_matrix=a),
            Segment(t_start=0.4, t_end=1.0, phi=phi, gramian=gram,
                    b_matrix=b, jump=None, a_matrix=a),
        ]
        disc = PeriodDiscretization(segments=segments, period=1.0,
                                    n_states=1)
        with pytest.raises(ReproError, match="shares its propagator"):
            build_structure(disc)

    def test_source_gramians_built_once_per_phase(self, monkeypatch):
        calls = []
        original = context_module.vanloan_gramian

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(context_module, "vanloan_gramian", counting)
        context = SweepContext(sc_lowpass_system().system,
                               segments_per_phase=64)
        context.source_disc(0)
        # One stacked call per clock phase carries every source's drive.
        assert len(calls) == len(context.system.phases)
        n = context.disc.n_states
        assert all(args[1].shape == (context.n_sources, n, n)
                   for args in calls)
