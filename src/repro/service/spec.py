"""Job descriptions and their content-addressed identity.

A :class:`JobSpec` is one noise-analysis sweep to run: the circuit (a
:class:`~repro.circuit.statespace.SwitchedCircuitModel` or bare LPTV
system), the frequency grid, and the analysis knobs.  :func:`job_key`
maps a spec to its content address — the family-salted discretization
fingerprint (:func:`repro.mft.context.discretization_fingerprint`) plus
the grid hash and the result-shaping options — so two specs with the
same key are guaranteed to produce bit-identical result values, and
the :class:`~repro.service.store.SqliteResultStore` can serve one for
the other without recomputing.

Execution knobs (chunking, budget, failure mode) are deliberately
**not** part of the key: they change how a sweep runs, never what
values it produces, and a budget-degraded partial result is never
stored in the first place (:class:`~repro.service.queue.JobQueue`
stores only clean results).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import ReproError
from ..noise.solvers import resolve_solver

_ON_FAILURE = ("record", "raise")


@dataclass
class JobSpec:
    """One sweep job for the :class:`~repro.service.queue.JobQueue`.

    ``model_or_system`` and the identity fields (``frequencies``,
    ``segments_per_phase``, ``output_row``, ``solver``,
    ``attribute_sources``) define the job's content address; the
    remaining fields are execution knobs forwarded to
    :meth:`repro.analysis.NoiseAnalysis.psd_sweep` unchanged.
    """

    model_or_system: Any
    frequencies: Any
    segments_per_phase: int = 64
    output_row: int = 0
    #: ``None``/``"mft"`` or ``"spectral-batch"`` — the sweep-executor
    #: solvers, normalised to the canonical name (``None`` becomes
    #: ``"mft"``) at construction.  The delegated baselines are not
    #: servable (their results are stochastic or convergence-gated, so
    #: content addressing would lie about bit-identity).
    solver: "str | None" = None
    attribute_sources: Any = False
    # -- execution knobs (not part of the content address) ------------------
    on_failure: str = "record"
    budget: Any = None
    chunk_size: "int | None" = None
    #: Free-form display label (job listings, progress lines).
    label: str = ""
    #: Extra engine-construction options (``preflight=``, ``fallback=``...).
    analysis_options: "dict[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.frequencies = np.atleast_1d(
            np.asarray(self.frequencies, dtype=float))
        if self.frequencies.size == 0:
            raise ReproError("a job needs at least one frequency")
        if self.on_failure not in _ON_FAILURE:
            raise ReproError(
                f"on_failure must be one of {_ON_FAILURE}, got "
                f"{self.on_failure!r}")
        self.solver = resolve_solver(self.solver)
        if self.solver in ("brute-force", "monte-carlo"):
            raise ReproError(
                f"solver {self.solver!r} is not servable: its results "
                "are not content-addressable (stochastic / convergence-"
                "gated); submit solver='mft' or 'spectral-batch'")
        self.segments_per_phase = int(self.segments_per_phase)
        self.output_row = int(self.output_row)

    def describe(self) -> str:
        name = self.label or type(self.model_or_system).__name__
        return (f"{name}: {self.frequencies.size} frequencies, "
                f"solver={self.solver}")


def _attribution_token(attribute_sources: Any) -> Any:
    """Canonical, hashable form of the ``attribute_sources`` option."""
    if attribute_sources is False or attribute_sources is None:
        return False
    if attribute_sources is True:
        return True
    return [str(label) for label in attribute_sources]


def job_key(spec: JobSpec) -> str:
    """Content address of one job (hex sha256).

    Two specs with equal keys produce bit-identical sweep values:
    the key covers the discretized system (content fingerprint, falling
    back to object identity for callable-defined systems), the exact
    grid bytes, the observed output row, the resolved solver, and the
    attribution request — everything that shapes the result, nothing
    that merely shapes the execution.
    """
    from ..analysis.api import _system_of
    from ..mft.context import discretization_fingerprint

    system, _model = _system_of(spec.model_or_system)
    grid = hashlib.sha256(np.ascontiguousarray(
        spec.frequencies, dtype=float).tobytes())
    identity = {
        "fingerprint": discretization_fingerprint(
            system, spec.segments_per_phase),
        "grid_sha256": grid.hexdigest(),
        "n_points": int(spec.frequencies.size),
        "output_row": int(spec.output_row),
        "solver": spec.solver,
        "attribute_sources": _attribution_token(spec.attribute_sources),
        "family": getattr(spec.model_or_system, "family_hash", None),
    }
    blob = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()
