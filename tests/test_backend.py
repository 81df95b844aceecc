"""Tests of the pluggable array-module backend (``repro.backend``).

The spectral kernels resolve their array math through
:func:`repro.backend.array_module` instead of importing numpy at each
call site.  These tests pin the contract: numpy is the default and only
shipped backend, selection is explicit and restorable, registration
validates the required API surface, and the kernels really do dispatch
through the shim (a counting proxy sees the calls) while staying
bit-identical to direct numpy.
"""

import types

import numpy as np
import pytest

from repro.backend import (
    array_module,
    available_backends,
    backend_name,
    register_backend,
    use_backend,
)
from repro.mft.context import clear_sweep_contexts
from repro.mft.engine import MftNoiseAnalyzer


def _counting_numpy_proxy(counts):
    """A module delegating to numpy, counting ``matmul`` calls."""
    proxy = types.ModuleType("counting_numpy")
    proxy.__dict__.update(
        {name: getattr(np, name) for name in dir(np)
         if not name.startswith("_")})

    def matmul(*args, **kwargs):
        counts["matmul"] += 1
        return np.matmul(*args, **kwargs)

    proxy.matmul = matmul
    return proxy


class TestSelection:
    def test_numpy_is_the_default_backend(self):
        assert backend_name() == "numpy"
        assert array_module() is np

    def test_numpy_is_always_registered(self):
        assert "numpy" in available_backends()

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(KeyError, match="numpy"):
            use_backend("does-not-exist")

    def test_context_manager_restores_previous_backend(self):
        counts = {"matmul": 0}
        register_backend("counting", _counting_numpy_proxy(counts))
        with use_backend("counting") as xp:
            assert backend_name() == "counting"
            assert array_module() is xp
        assert backend_name() == "numpy"
        assert array_module() is np

    def test_plain_call_switches_until_restored(self):
        counts = {"matmul": 0}
        register_backend("counting", _counting_numpy_proxy(counts))
        selection = use_backend("counting")
        try:
            assert backend_name() == "counting"
        finally:
            selection.__exit__(None, None, None)
        assert backend_name() == "numpy"


class TestRegistration:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_backend("", np)

    def test_module_missing_required_surface_rejected(self):
        stub = types.ModuleType("stub")
        stub.matmul = np.matmul
        with pytest.raises(TypeError, match="eye"):
            register_backend("stub", stub)

    def test_reregistering_replaces(self):
        counts = {"matmul": 0}
        register_backend("swap-test", _counting_numpy_proxy(counts))
        replacement = _counting_numpy_proxy(counts)
        register_backend("swap-test", replacement)
        with use_backend("swap-test") as xp:
            assert xp is replacement


class TestKernelDispatch:
    """The spectral kernels really go through the shim, bit-identically."""

    def _sweep(self, rc_system, freqs):
        clear_sweep_contexts()
        analyzer = MftNoiseAnalyzer(rc_system, segments_per_phase=16)
        return analyzer.psd_sweep(freqs, solver="spectral-batch")

    def test_spectral_batch_dispatches_through_active_backend(
            self, rc_system):
        freqs = np.linspace(100.0, 4e4, 8)
        reference = self._sweep(rc_system, freqs)
        counts = {"matmul": 0}
        register_backend("counting", _counting_numpy_proxy(counts))
        with use_backend("counting"):
            candidate = self._sweep(rc_system, freqs)
        assert counts["matmul"] > 0, (
            "the batched kernel never called the active backend")
        # The proxy delegates to the same numpy functions, so the shim
        # must cost nothing numerically: bit-identical values.
        assert reference.psd.tobytes() == candidate.psd.tobytes()

    def test_default_backend_unchanged_after_proxy_sweep(self, rc_system):
        # A sweep under a proxy backend must not leak the selection.
        assert backend_name() == "numpy"
        freqs = np.linspace(100.0, 4e4, 5)
        result = self._sweep(rc_system, freqs)
        assert np.all(np.isfinite(result.psd))
