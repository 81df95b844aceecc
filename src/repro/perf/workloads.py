"""Representative sweep workloads the perf harness times.

Each :class:`Workload` names one realistic analysis — circuit, grid, and
density — small enough to run in CI yet large enough that cache and
dispatch effects dominate noise. The registry is the single source of
truth for :mod:`repro.perf.harness`, ``benchmarks/test_perf_regression``
and the ``bench-smoke`` CI job, so the recorded trajectory in
``BENCH_sweep.json`` always refers to the same work.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..circuits import (
    NOMINAL_TEMPERATURE_K,
    ParameterGrid,
    ScLowpassParams,
    sc_bandpass_system,
    sc_lowpass_system,
    switched_rc_system,
)
from ..circuits.sc_lowpass import SC_LOWPASS_C1, SC_LOWPASS_C2
from ..errors import ReproError
from ..typing import FloatArray


@dataclass(frozen=True)
class AdaptiveSpec:
    """Parameters of an adaptive-grid workload (see ``mft.sweep``)."""

    f_start: float
    f_stop: float
    n_initial: int = 16
    max_points: int = 64
    tol_db: float = 0.5


@dataclass(frozen=True)
class ServiceSpec:
    """Parameters of a service workload (see :mod:`repro.service`).

    The submission list is ``n_jobs`` distinct sweep jobs — each over
    the workload's grid scaled by a distinct factor, so no two share a
    content address — repeated ``n_passes`` times, modelling real
    batch traffic where the same circuit/grid is re-analyzed.  The
    serial submit-loop reference recomputes every submission cold; the
    long-lived service computes each distinct job once and serves the
    duplicates from the content-addressed result store, sharding each
    computed sweep across ``max_workers`` workers.
    """

    n_jobs: int = 6
    n_passes: int = 3
    max_workers: int = 2
    #: Per-job grid scale step: job ``j`` sweeps ``grid * (1 + step*j)``.
    grid_step: float = 0.01


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``build`` returns a fresh LPTV system; ``grid`` the fixed frequency
    grid of a plain sweep (``None`` for adaptive workloads, which carry
    an :class:`AdaptiveSpec` instead).  ``attribution=True`` marks a
    fixed-grid workload whose variants additionally time the per-source
    decomposition (``attribute_sources=``, DESIGN.md §11) against the
    plain sweep.  ``corners`` (a factory returning a
    :class:`~repro.circuits.ParameterGrid`) marks a fixed-grid workload
    whose variants time the parameter-batched corner sweep
    (``corner_psd_sweep``, DESIGN.md §12) against M independent
    per-corner spectral sweeps of the same family.  ``service`` (a
    :class:`ServiceSpec`) marks a fixed-grid workload whose variants
    time the job-queue service layer (DESIGN.md §13): N jobs through a
    serial submit loop versus a shared worker pool, plus the
    store-resubmit configuration.
    """

    name: str
    description: str
    build: Callable[[], Any]
    segments_per_phase: int = 64
    grid: Callable[[], FloatArray] | None = None
    adaptive: AdaptiveSpec | None = None
    attribution: bool = False
    corners: Callable[[], ParameterGrid] | None = None
    service: ServiceSpec | None = None

    def __post_init__(self) -> None:
        if (self.grid is None) == (self.adaptive is None):
            raise ReproError(
                f"workload {self.name!r} must define exactly one of "
                "grid or adaptive")
        if self.attribution and self.grid is None:
            raise ReproError(
                f"attribution workload {self.name!r} needs a fixed grid")
        if self.corners is not None and (self.grid is None
                                         or self.attribution):
            raise ReproError(
                f"corners workload {self.name!r} needs a fixed grid and "
                "no attribution flag (the corners variants time "
                "attribution themselves)")
        if self.service is not None and (self.grid is None
                                         or self.attribution
                                         or self.corners is not None):
            raise ReproError(
                f"service workload {self.name!r} needs a fixed grid and "
                "no attribution/corners flags (the service variants "
                "own their whole configuration matrix)")

    @property
    def kind(self) -> str:
        if self.service is not None:
            return "service"
        if self.corners is not None:
            return "corners"
        if self.attribution:
            return "attribution"
        return "sweep" if self.grid is not None else "adaptive"

    def frequencies(self) -> FloatArray:
        if self.grid is None:
            raise ReproError(
                f"adaptive workload {self.name!r} has no fixed grid")
        return np.asarray(self.grid(), dtype=float)

    def corner_family(self) -> ParameterGrid:
        """The workload's :class:`ParameterGrid` (corners kind only)."""
        if self.corners is None:
            raise ReproError(
                f"workload {self.name!r} defines no corner family")
        family = self.corners()
        if not isinstance(family, ParameterGrid):
            raise ReproError(
                f"workload {self.name!r}: corners factory must return "
                f"a ParameterGrid, got {type(family).__name__}")
        return family


def _switched_rc_grid() -> FloatArray:
    return np.linspace(100.0, 40e3, 32)


def _sc_lowpass_grid() -> FloatArray:
    return np.linspace(100.0, 12e3, 64)


def _sc_lowpass_grid_256() -> FloatArray:
    return np.linspace(100.0, 12e3, 256)


def _sc_lowpass_grid_16() -> FloatArray:
    return np.linspace(100.0, 12e3, 16)


#: Relative capacitor spread of the corner workload: ±10% on the
#: paper's C1/C2 values — a typical SC process-corner envelope.
CORNER_CAP_SPREAD = 0.10

#: Temperature corners [K] of the corner workload; noise PSDs scale as
#: ``T / NOMINAL_TEMPERATURE_K`` (thermal 4kTR with 300 K baked in).
CORNER_TEMPERATURE_COLD_K = 250.0
CORNER_TEMPERATURE_HOT_K = 340.0

#: Worst-case intensity corner: every noise PSD 25% above nominal
#: (hot silicon plus a pessimistic op-amp noise budget).
CORNER_WORST_CASE_SCALE = 1.25


def _sc_lowpass_corner_family() -> ParameterGrid:
    """16-corner family: 4 capacitor corners × 4 intensity corners.

    The dynamics-major product keeps corners that share capacitor
    values adjacent, which is the layout the parameter-batched solver
    groups: each of the 4 dynamics roots carries its 4 intensity
    variants as derived (shared-propagator) contexts.
    """
    lo = 1.0 - CORNER_CAP_SPREAD
    hi = 1.0 + CORNER_CAP_SPREAD
    dynamics: dict[str, dict[str, Any]] = {
        "nom": {},
        "c1lo": {"c1": lo * SC_LOWPASS_C1},
        "c1hi": {"c1": hi * SC_LOWPASS_C1},
        "c2hi": {"c2": hi * SC_LOWPASS_C2},
    }
    intensities: dict[str, float | dict[Any, float]] = {
        "cold": CORNER_TEMPERATURE_COLD_K / NOMINAL_TEMPERATURE_K,
        "nom": 1.0,
        "hot": CORNER_TEMPERATURE_HOT_K / NOMINAL_TEMPERATURE_K,
        "wc": CORNER_WORST_CASE_SCALE,
    }
    return ParameterGrid.cross(dynamics, intensities,
                               builder=sc_lowpass_system,
                               base_params=ScLowpassParams())


def default_workloads() -> list[Workload]:
    """The recorded benchmark set (≥ 3 workloads, see DESIGN.md §8).

    ``sc-lowpass-sweep-64`` is the reference sweep of the observability
    and chaos gates; ``sc-lowpass-sweep-256`` carries the spectral-batch
    speedup gate.
    """
    return [
        Workload(
            name="switched-rc-sweep",
            description="Switched-RC track/hold, 32-point linear sweep "
                        "to 2x the clock rate",
            build=switched_rc_system,
            grid=_switched_rc_grid,
        ),
        Workload(
            name="sc-lowpass-sweep-64",
            description="SC low-pass filter (paper circuit), 64-point "
                        "linear sweep across the baseband",
            build=lambda: sc_lowpass_system().system,
            grid=_sc_lowpass_grid,
        ),
        Workload(
            name="sc-lowpass-sweep-256",
            description="SC low-pass filter, 256-point linear sweep; "
                        "dense enough that the spectral-batch kernel's "
                        "per-block amortization dominates",
            build=lambda: sc_lowpass_system().system,
            grid=_sc_lowpass_grid_256,
        ),
        Workload(
            name="sc-lowpass-attribution",
            description="SC low-pass filter, 64-point sweep with "
                        "per-source attribution; the regression gate "
                        "bounds the attributed/unattributed cost ratio",
            build=lambda: sc_lowpass_system().system,
            grid=_sc_lowpass_grid,
            attribution=True,
        ),
        Workload(
            name="sc-lowpass-corners",
            description="SC low-pass filter, 16-corner family "
                        "(4 capacitor corners x 4 noise-intensity "
                        "corners) over the 64-point baseband grid; the "
                        "corner-batch gate bounds the batched solve "
                        "against 16 independent cached spectral sweeps",
            build=lambda: sc_lowpass_system().system,
            grid=_sc_lowpass_grid,
            corners=_sc_lowpass_corner_family,
        ),
        Workload(
            name="sc-service-throughput",
            description="Service batch throughput: 6 distinct SC "
                        "low-pass sweep jobs (64-point grids, distinct "
                        "content addresses) submitted 3 times each; "
                        "the service gate bounds the 2-worker pooled "
                        "service (store-armed) against the cold serial "
                        "submit loop",
            build=lambda: sc_lowpass_system().system,
            grid=_sc_lowpass_grid,
            service=ServiceSpec(n_jobs=6, n_passes=3, max_workers=2),
        ),
        Workload(
            name="sc-service-latency",
            description="Service latency profile: 16 small distinct SC "
                        "low-pass jobs (16-point grids) submitted "
                        "twice each through a JobQueue; records "
                        "p50/p99 job latency and store-hit telemetry",
            build=lambda: sc_lowpass_system().system,
            grid=_sc_lowpass_grid_16,
            service=ServiceSpec(n_jobs=16, n_passes=2, max_workers=2),
        ),
        Workload(
            name="sc-bandpass-adaptive",
            description="SC band-pass biquad, adaptive grid resolving "
                        "the resonance",
            build=lambda: sc_bandpass_system().system,
            adaptive=AdaptiveSpec(f_start=1e3, f_stop=5e4,
                                  n_initial=12, max_points=48),
        ),
    ]


def tiny_workloads() -> list[Workload]:
    """CI-smoke versions: same circuits, drastically smaller grids."""
    tiny = []
    for workload in default_workloads():
        if workload.grid is not None:
            grid = workload.frequencies()[::8]
            if grid.size < 3:
                grid = workload.frequencies()[:3]
            small = replace(workload, grid=lambda g=grid: g,
                            segments_per_phase=16)
            if workload.service is not None:
                small = replace(small, service=replace(
                    workload.service,
                    n_jobs=min(3, workload.service.n_jobs)))
            tiny.append(small)
        else:
            assert workload.adaptive is not None
            tiny.append(replace(
                workload,
                adaptive=replace(workload.adaptive, n_initial=6,
                                 max_points=10),
                segments_per_phase=16))
    return tiny


def workload_by_name(name: str,
                     workloads: list[Workload] | None = None) -> Workload:
    """Look a workload up by name (raises with the known names)."""
    pool = workloads if workloads is not None else default_workloads()
    for workload in pool:
        if workload.name == name:
            return workload
    raise ReproError(
        f"unknown workload {name!r}; known: "
        f"{[w.name for w in pool]}")
