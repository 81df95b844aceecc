"""Parameter families for corner/mismatch sweeps (DESIGN.md §12).

A *corner* perturbs a circuit in one (or both) of two orthogonal ways:

* **dynamics overrides** — new component values (capacitors, switch
  on-resistances, op-amp bandwidth) applied to the builder's frozen
  params dataclass via :func:`dataclasses.replace`.  These change the
  ``A`` matrices, so the corner needs its own propagators, covariance,
  and monodromy;
* **noise-intensity scales** — multipliers on the double-sided noise
  PSDs (temperature scaling, a noisier op-amp).  These leave every
  ``A`` matrix untouched: the sources are independent and white, so the
  PSD is a sum of per-source terms, each linear in its own intensity.
  An intensity-only corner is therefore a linear map of its dynamics
  root's total and per-source PSD rows, with no solve of its own
  (:class:`repro.mft.corners.RootMap`).

:class:`ParameterGrid` holds an ordered list of :class:`CornerSpec` and
knows how to build the per-corner models, resolve per-source intensity
scales against a model's noise labels, and fingerprint the whole family
(:meth:`ParameterGrid.family_hash`) so a dynamics root registered for a
corner sweep (``sweep_context_for(family=)``) can never alias a plain
sweep's registry entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ReproError
from ..typing import FloatArray

__all__ = [
    "CornerSpec",
    "ParameterGrid",
    "NOMINAL_TEMPERATURE_K",
    "scale_system_noise",
]

#: Reference temperature [K] for :meth:`CornerSpec.temperature`: thermal
#: noise PSDs scale as ``T / NOMINAL_TEMPERATURE_K`` (4kTR with the
#: nominal value baked into the component models).
NOMINAL_TEMPERATURE_K = 300.0


@dataclass(frozen=True)
class CornerSpec:
    """One corner: named dynamics overrides plus a noise-intensity scale.

    ``overrides`` maps builder-params field names to new values (empty
    for an intensity-only corner).  ``noise_scale`` multiplies the
    double-sided noise *PSDs* (so the ``B`` columns scale by its square
    root): a scalar applies to every source; a mapping applies per
    source, keyed by noise label (or integer column index), with
    unlisted sources at 1.0.
    """

    name: str
    overrides: dict[str, Any] = field(default_factory=dict)
    noise_scale: float | dict[Any, float] = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("corner name must be non-empty")
        object.__setattr__(self, "overrides", dict(self.overrides))
        scale = self.noise_scale
        bad: dict[Any, float]
        if isinstance(scale, dict):
            scale = {key: float(value) for key, value in scale.items()}
            object.__setattr__(self, "noise_scale", scale)
            bad = {k: v for k, v in scale.items()
                   if not v > 0.0 or not np.isfinite(v)}
        else:
            scale = float(scale)
            object.__setattr__(self, "noise_scale", scale)
            bad = ({} if (scale > 0.0 and np.isfinite(scale))
                   else {"noise_scale": scale})
        if bad:
            raise ReproError(
                f"corner {self.name!r}: noise PSD scales must be finite "
                f"and positive, got {bad}")

    @classmethod
    def temperature(cls, kelvin: float,
                    nominal: float = NOMINAL_TEMPERATURE_K,
                    name: str | None = None) -> "CornerSpec":
        """Intensity-only corner scaling every PSD by ``T / nominal``."""
        kelvin = float(kelvin)
        if not kelvin > 0.0:
            raise ReproError(f"temperature must be positive, got {kelvin}")
        if name is None:
            name = f"T={kelvin:g}K"
        return cls(name=name, noise_scale=kelvin / float(nominal))

    @property
    def intensity_only(self) -> bool:
        """True when the corner changes only noise intensities."""
        return not self.overrides

    @property
    def uniform_scale(self) -> float | None:
        """The scalar PSD multiplier, or ``None`` for per-source maps."""
        if isinstance(self.noise_scale, dict):
            return None
        return float(self.noise_scale)

    def overrides_key(self) -> tuple[tuple[str, str], ...]:
        """Hashable identity of the dynamics overrides."""
        return tuple(sorted(
            (str(k), repr(v)) for k, v in self.overrides.items()))

    def resolved_scales(self, noise_labels: Sequence[str] | None,
                        n_sources: int) -> FloatArray:
        """Per-source PSD multipliers as a float array of ``n_sources``.

        Mapping keys are matched against ``noise_labels`` first, then
        accepted as integer column indices; an unknown key raises with
        the known labels listed.
        """
        scale = self.noise_scale
        if not isinstance(scale, dict):
            return np.full(int(n_sources), float(scale))
        out = np.ones(int(n_sources))
        labels = list(noise_labels or [])
        for key, value in scale.items():
            if key in labels:
                out[labels.index(key)] = value
                continue
            if isinstance(key, int) and 0 <= key < n_sources:
                out[key] = value
                continue
            raise ReproError(
                f"corner {self.name!r}: unknown noise source {key!r}; "
                f"labels are {labels or '(none — use column indices)'}")
        return out


def scale_system_noise(system: Any,
                       scales: float | FloatArray) -> Any:
    """A copy of ``system`` whose noise PSDs are scaled by ``scales``.

    ``scales`` is a scalar PSD multiplier or a per-source array (one
    entry per noise column); the ``B`` columns — square roots of the
    double-sided PSDs — are scaled by ``sqrt(scales)``.  Only works for
    phase-based systems (:class:`~repro.lptv.system.PiecewiseLTISystem`);
    sampled systems have no content to rescale.
    """
    phases = getattr(system, "phases", None)
    if phases is None:
        raise ReproError(
            "intensity scaling needs a phase-based LPTV system, got "
            f"{type(system).__name__}")
    scale_arr = np.atleast_1d(np.asarray(scales, dtype=float))
    if not np.all(np.isfinite(scale_arr)) or not np.all(scale_arr > 0.0):
        raise ReproError(
            "noise PSD scales must be finite and positive, got "
            f"{scale_arr}")
    amplitude = np.sqrt(scale_arr)
    new_phases = []
    for phase in phases:
        b = np.asarray(phase.b_matrix)
        if amplitude.size not in (1, b.shape[1]):
            raise ReproError(
                f"{amplitude.size} noise scales for a phase with "
                f"{b.shape[1]} noise columns")
        new_phases.append(dataclasses.replace(
            phase, b_matrix=b * amplitude[None, :]))
    return dataclasses.replace(system, phases=new_phases)


class ParameterGrid:
    """An ordered family of :class:`CornerSpec` over one base circuit.

    Parameters
    ----------
    corners:
        The corner list (order defines the ``M`` axis of every corner
        sweep result).
    builder:
        Callable mapping a params dataclass to a model/system (e.g.
        :func:`~repro.circuits.sc_lowpass.sc_lowpass_system`).  Required
        only when any corner carries dynamics overrides; a purely
        intensity-scaled grid can run against the analysis's own model.
    base_params:
        The frozen params dataclass the overrides are replayed onto.
    """

    def __init__(self, corners: Iterable[CornerSpec],
                 builder: Callable[[Any], Any] | None = None,
                 base_params: Any = None) -> None:
        corner_list = list(corners)
        if not corner_list:
            raise ReproError("parameter grid needs at least one corner")
        for corner in corner_list:
            if not isinstance(corner, CornerSpec):
                raise ReproError(
                    "grid entries must be CornerSpec instances, got "
                    f"{type(corner).__name__}")
        names = [corner.name for corner in corner_list]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ReproError(f"duplicate corner names: {dupes}")
        needs_builder = [c.name for c in corner_list if c.overrides]
        if needs_builder and (builder is None or base_params is None):
            raise ReproError(
                "corners with dynamics overrides need builder= and "
                f"base_params= (overriding corners: {needs_builder})")
        self.corners = corner_list
        self.builder = builder
        self.base_params = base_params
        self._models: dict[tuple[tuple[str, str], ...], Any] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_corners(cls, corners: Iterable[CornerSpec],
                     builder: Callable[[Any], Any] | None = None,
                     base_params: Any = None) -> "ParameterGrid":
        """Grid from an explicit corner list (the general form)."""
        return cls(corners, builder=builder, base_params=base_params)

    @classmethod
    def cross(cls, dynamics: Mapping[str, Mapping[str, Any]],
              intensities: Mapping[str, float | dict[Any, float]],
              builder: Callable[[Any], Any] | None = None,
              base_params: Any = None) -> "ParameterGrid":
        """Cartesian product of dynamics corners × intensity corners.

        ``dynamics`` maps corner names to override dicts (use ``{}`` for
        the nominal member); ``intensities`` maps corner names to PSD
        scales (scalar or per-source mapping).  The product order is
        dynamics-major, so corners sharing dynamics are adjacent — the
        layout the batched solver groups for free.
        """
        if not dynamics or not intensities:
            raise ReproError(
                "cross() needs at least one dynamics and one intensity "
                "corner")
        corners = [
            CornerSpec(name=f"{dname}/{iname}", overrides=dict(overrides),
                       noise_scale=scale)
            for (dname, overrides), (iname, scale)
            in itertools.product(dynamics.items(), intensities.items())]
        return cls(corners, builder=builder, base_params=base_params)

    @classmethod
    def mismatch(cls, fields: Sequence[str], sigma: float,
                 n_corners: int, seed: int,
                 builder: Callable[[Any], Any] | None = None,
                 base_params: Any = None) -> "ParameterGrid":
        """Seeded Monte-Carlo mismatch grid: relative Gaussian spreads.

        Each corner perturbs every named params field by
        ``value · (1 + sigma · z)`` with ``z ~ N(0, 1)`` from
        ``numpy.random.default_rng(seed)`` — the seed is **required**
        (deterministic-replay hygiene: an unseeded grid could never be
        resumed or reproduced).
        """
        if base_params is None or builder is None:
            raise ReproError("mismatch grids need builder= and "
                             "base_params=")
        field_list = list(fields)
        if not field_list:
            raise ReproError("mismatch() needs at least one field name")
        sigma = float(sigma)
        n_corners = int(n_corners)
        if n_corners < 1:
            raise ReproError(f"n_corners must be >= 1, got {n_corners}")
        rng = np.random.default_rng(seed)
        corners = []
        for k in range(n_corners):
            draws = rng.standard_normal(len(field_list))
            overrides = {}
            for name, z in zip(field_list, draws):
                nominal = getattr(base_params, name)
                overrides[name] = float(nominal) * (1.0 + sigma * z)
            corners.append(CornerSpec(name=f"mc{k:03d}",
                                      overrides=overrides))
        return cls(corners, builder=builder, base_params=base_params)

    # -- accessors -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.corners)

    def __iter__(self) -> Iterator[CornerSpec]:
        return iter(self.corners)

    @property
    def names(self) -> list[str]:
        """Corner names, in grid (``M`` axis) order."""
        return [corner.name for corner in self.corners]

    def build_model(self, index: int) -> Any:
        """Model for corner ``index``'s *dynamics* (intensity excluded).

        Cached per distinct overrides key: intensity-only corners of one
        dynamics point share a single built model, which is what lets
        the sweep map their values from one root instead of rebuilding.
        Returns
        ``None`` for override-free corners of a builder-less grid (the
        caller falls back to its own base model).
        """
        corner = self.corners[int(index)]
        if not corner.overrides and self.builder is None:
            return None
        key = corner.overrides_key()
        model = self._models.get(key)
        if model is None:
            assert self.builder is not None  # checked in __init__
            params = dataclasses.replace(self.base_params,
                                         **corner.overrides)
            model = self.builder(params)
            self._models[key] = model
        return model

    def family_hash(self) -> str:
        """Content hash of the whole corner family.

        Salts the :mod:`repro.mft.context` registry keys under which a
        corner sweep looks up its dynamics roots, so a root registered
        for the family can never be served to — or poisoned by — a plain
        sweep whose system happens to fingerprint identically.
        """
        digest = hashlib.sha256()
        digest.update(repr(self.base_params).encode())
        for corner in self.corners:
            digest.update(corner.name.encode())
            digest.update(repr(corner.overrides_key()).encode())
            digest.update(repr(corner.noise_scale).encode())
            digest.update(b"|")
        return digest.hexdigest()[:16]

    def __repr__(self) -> str:
        return (f"ParameterGrid({len(self.corners)} corners, "
                f"family={self.family_hash()})")
