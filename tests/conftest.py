"""Shared fixtures: canonical circuits and reproducible randomness."""

import numpy as np
import pytest

from repro.circuits import (
    ScLowpassParams,
    SwitchedRcParams,
    sc_lowpass_system,
    switched_rc_system,
)
from repro.diagnostics.budget import SweepBudget
from repro.mft import corners as corners_module


@pytest.fixture
def rng():
    return np.random.default_rng(20030603)  # DAC 2003 :-)


@pytest.fixture
def rc_params():
    """Switched RC with T/τ = 5 at 50% duty: mildly sampled-data."""
    return SwitchedRcParams(resistance=10e3, capacitance=1e-9,
                            period=5e-5, duty=0.5)


@pytest.fixture
def rc_system(rc_params):
    return switched_rc_system(rc_params)


@pytest.fixture(scope="session")
def lowpass_model():
    """The paper's SC low-pass filter (source-follower op-amp)."""
    return sc_lowpass_system()


@pytest.fixture(scope="session")
def lowpass_params():
    return ScLowpassParams()


def random_stable_matrix(rng, n, margin=0.5):
    """A random strictly stable matrix (all eigenvalue real parts < -margin)."""
    a = rng.standard_normal((n, n))
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0)
    return a - (shift + margin) * np.eye(n)


class FirstChunkBudget(SweepBudget):
    """A sweep budget that lets the first chunk dispatch, then is spent.

    The executor asks ``exceeded()`` once before each chunk, so every
    chunk after the first becomes ``budget``-stage failures — a
    deterministic skipped-chunk case with no wall clock involved.
    """

    def __init__(self):
        super().__init__()
        self.n_checks = 0

    def exceeded(self):
        self.n_checks += 1
        return None if self.n_checks == 1 else "test budget: one chunk"


@pytest.fixture
def first_chunk_budget():
    return FirstChunkBudget()


@pytest.fixture
def corner_roots(monkeypatch):
    """Every dynamics root (:class:`~repro.mft.corners.RootMap`) the
    corner sweeps of a test build, in order.

    A corner sweep keeps its contexts to itself; this is how a test
    reads them.
    """
    roots = []
    build = corners_module._build_roots

    def capture(*args, **kwargs):
        built = build(*args, **kwargs)
        roots.extend(built)
        return built

    monkeypatch.setattr(corners_module, "_build_roots", capture)
    return roots
