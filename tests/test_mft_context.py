"""SweepContext caches, the bounded registry, and solve_shifted branches.

Covers the cache-policy satellites of the spectral-batch PR: the per-ω
shifted-integrals cache is a *true* LRU (hits refresh recency), the
module registry is lock-guarded and LRU-bounded, and the less-travelled
``solve_shifted`` branches (``lstsq``, the condition-limit rejection,
the resolvent-vs-trapezoid crossover) agree with the reference solver.
"""

import threading

import numpy as np
import pytest

from repro.circuits import SwitchedRcParams, switched_rc_system
from repro.errors import SingularMatrixError
from repro.lptv.periodic_solve import periodic_steady_state
from repro.mft.context import (
    SweepContext,
    clear_sweep_contexts,
    registry_stats,
    sweep_context_for,
)
from repro.mft.engine import MftNoiseAnalyzer


@pytest.fixture()
def context(rc_system):
    return SweepContext(rc_system, segments_per_phase=16)


def _forcing(context):
    analyzer = MftNoiseAnalyzer(context.system, context=context)
    return analyzer._forcing_pairs()


class TestOmegaCacheLRU:
    def test_hit_refreshes_recency(self, context):
        context._omega_cache_limit = 2
        w1, w2, w3 = 1.0e3, 2.0e3, 3.0e3
        context.shifted_integrals(w1)
        context.shifted_integrals(w2)
        # Re-touching w1 makes w2 the least-recently-used entry...
        context.shifted_integrals(w1)
        context.shifted_integrals(w3)
        # ...so inserting w3 at the limit must evict w2, not w1.
        assert list(context._omega_cache) == [w1, w3]

    def test_hit_and_eviction_counters(self, context):
        context._omega_cache_limit = 2
        base = context.stats.to_dict()
        context.shifted_integrals(1.0e3)
        context.shifted_integrals(1.0e3)
        context.shifted_integrals(2.0e3)
        context.shifted_integrals(3.0e3)
        delta_hits = (context.stats.hits.get("shifted-integrals", 0)
                      - base["hits"].get("shifted-integrals", 0))
        delta_evictions = (
            context.stats.evictions.get("shifted-integrals", 0)
            - base["evictions"].get("shifted-integrals", 0))
        assert delta_hits == 1
        assert delta_evictions == 1

    def test_cache_never_exceeds_limit(self, context):
        context._omega_cache_limit = 4
        for omega in np.linspace(1e3, 9e3, 9):
            context.shifted_integrals(float(omega))
        assert len(context._omega_cache) <= 4

    def test_evicted_entry_is_recomputed_identically(self, context):
        context._omega_cache_limit = 2
        first = [np.copy(e[0]) for e in context.shifted_integrals(1.0e3)]
        context.shifted_integrals(2.0e3)
        context.shifted_integrals(3.0e3)  # evicts 1.0e3
        again = context.shifted_integrals(1.0e3)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b[0])


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
