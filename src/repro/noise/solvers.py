"""The unified solver registry for noise PSD computation.

Both PSD entry points — ``MftNoiseAnalyzer.psd`` and
``MftNoiseAnalyzer.psd_sweep``, which ``NoiseAnalysis`` inherits —
accept one ``solver=`` keyword naming the engine:

``"mft"``
    Per-frequency mixed-frequency-time solve through the cached
    ``solve_shifted`` path with the full fallback chain. The default.
``"spectral-batch"``
    The frequency-batched spectral kernel (the reference's step
    integrals stacked over ω, one batched ``(I − e^{-jωT}M₀)`` solve per
    ω-block),
    with per-frequency rescue through the fallback chain.
``"brute-force"``
    Long-transient time-domain reference (delegates to
    :func:`repro.noise.brute_force.brute_force_psd`).
``"monte-carlo"``
    Stochastic trajectory-ensemble estimate (delegates to
    :func:`repro.baselines.montecarlo.monte_carlo_psd`). Defines its own
    Welch frequency grid, so it rejects an explicit frequency list.

This module deliberately imports no engine code — the registry is the
shared vocabulary, dispatch lives with the analyzers — so it sits below
``repro.mft``/``repro.analysis`` without import cycles.
"""

from __future__ import annotations

from ..errors import ReproError

__all__ = ["SOLVERS", "resolve_solver"]

#: The blessed solver names, in documentation order.
SOLVERS: tuple[str, ...] = (
    "mft", "spectral-batch", "brute-force", "monte-carlo")


def resolve_solver(solver: str | None) -> str:
    """Normalise a ``solver=`` value to one canonical registry name.

    ``None`` means "the default engine" and resolves to ``"mft"``.
    Anything not in :data:`SOLVERS` raises :class:`ReproError` listing
    the valid choices.
    """
    if solver is None:
        return "mft"
    if not isinstance(solver, str):
        raise ReproError(
            f"solver must be a string or None, got {type(solver).__name__}; "
            f"valid choices: {', '.join(SOLVERS)}")
    name = solver.strip().lower()
    if name not in SOLVERS:
        raise ReproError(
            f"unknown solver {solver!r}; valid choices: "
            f"{', '.join(SOLVERS)}")
    return name
