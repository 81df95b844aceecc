"""Corner/mismatch PSD sweeps through one parameter-batched kernel.

A corner sweep evaluates one circuit family — an M-corner
:class:`~repro.circuits.corners.ParameterGrid` — over one frequency
grid.  Running it as M independent sweeps repeats all the work that is
*shared* across corners: corners that differ only in noise intensities
share every propagator, power stack and monodromy with their dynamics
root, and even across distinct solves the per-frequency
LU of ``I − e^{-jωT}M₀`` can serve many forcing rows at once.  This
module instead flattens the ``(corner, frequency)`` product into one
frequency-major axis (flat cell ``i`` = frequency ``i // M``, corner
``i % M``) and drives it through the ordinary
:class:`~repro.mft.executor.SweepExecutor` — chunking, the budget gate
and the partial-failure contract all work unchanged — with a
:class:`CornerBatchAnalyzer` that evaluates each chunk as one
stacked :func:`repro.mft.spectral.solve_spectral_batch` call per
dynamics group.

Fallback is per cell (DESIGN.md §12): a ``(corner, frequency)`` cell
whose batched solve is rejected (condition gate, singular fixed point,
non-finite value) is rescued through that corner's per-frequency
fallback chain (:mod:`repro.diagnostics.fallback`), exactly as a plain
sweep would.

The stacked step itself (:func:`solve_stacked`, sized by
:func:`stacked_block_size`) takes a list of member analyzers, so it is
the batch step of every batched sweep: a plain
``psd_sweep(solver="spectral-batch")`` runs it with its own analyzer as
the one member, where the flat axis *is* the frequency axis — the
parity battery in ``tests/test_corner_sweep.py`` pins an ``M = 1``
corner sweep bit for bit to that plain sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from ..circuits.corners import ParameterGrid
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError
from ..noise.result import PsdResult
from ..typing import FloatArray
from .context import (
    SweepContext,
    _registered_context,
    discretization_fingerprint,
)
from .engine import (
    MftNoiseAnalyzer,
    forcing_rows,
    kernel_values,
    sweep_chunk,
)
from .spectral import solve_spectral_batch

__all__ = ["CornerBatchAnalyzer", "CornerSweepResult", "corner_psd_sweep"]


def _system_of(model_or_system: Any) -> Any:
    """The LPTV system behind a builder result (model or bare system)."""
    system = getattr(model_or_system, "system", None)
    return system if system is not None else model_or_system


def _first_appearance(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values`` in the order they first appear."""
    _distinct, first = np.unique(values, return_index=True)
    return values[np.sort(first)]


class CornerBatchAnalyzer:
    """Executor-compatible analyzer over the flattened (corner, freq) axis.

    Wraps one :class:`~repro.mft.engine.MftNoiseAnalyzer` per corner
    (the *members*, sharing dynamics work through their contexts) and
    exposes the analyzer surface the
    :class:`~repro.mft.executor.SweepExecutor` drives — ``warm_up``,
    ``_attribution_request``, ``_sweep_chunk(freqs, …, start)`` — so
    every executor feature applies to corner sweeps without executor
    changes.  The ``frequencies`` the executor passes are the flat grid
    ``np.repeat(freqs, M)``; ``start`` recovers which
    ``(corner, frequency)`` cells a chunk covers.

    Not constructed directly — :func:`corner_psd_sweep` builds the
    members, shares preflights across derived corners, and maps the
    flat result back to corner shape.
    """

    def __init__(self, members: Sequence[MftNoiseAnalyzer],
                 grid: ParameterGrid, recorder: Any = None,
                 budget: Any = None) -> None:
        member_list = list(members)
        if not member_list:
            raise ReproError("corner analyzer needs at least one member")
        if len(member_list) != len(grid):
            raise ReproError(
                f"{len(member_list)} member analyzers for a grid of "
                f"{len(grid)} corners")
        self.members = member_list
        self.grid = grid
        first = member_list[0]
        self.recorder = recorder if recorder is not None else first.recorder
        self.budget = budget
        self.system = first.system
        self.segments_per_phase = first.segments_per_phase
        self.output_row = first.output_row
        merged = DiagnosticsReport(context="corner sweep preflight")
        seen: set[int] = set()
        for member in member_list:
            if id(member.preflight) in seen:
                continue
            seen.add(id(member.preflight))
            merged.merge(member.preflight)
        self.preflight = merged

    # -- executor duck-type surface -----------------------------------------

    @property
    def n_corners(self) -> int:
        return len(self.members)

    @property
    def context(self) -> SweepContext:
        """The first member's context (executor warm-up gate)."""
        return self.members[0].context

    @property
    def cache_stats(self) -> Any:
        return self.members[0].cache_stats

    def _output_name(self) -> str:
        return self.members[0]._output_name()

    def _attribution_request(self, attribute_sources: Any
                               ) -> "tuple[str, ...] | None":
        """The attribution request, resolved on the first member."""
        return self.members[0]._attribution_request(attribute_sources)

    def warm_up(self, sources: bool = False) -> "CornerBatchAnalyzer":
        """Warm every member (roots first — derivations draw on them)."""
        for member in self.members:
            member.warm_up(sources=sources)
        return self

    # -- the chunk hooks -----------------------------------------------------

    def _sweep_chunk(self, freqs: FloatArray, on_failure: str,
                     report: DiagnosticsReport,
                     labels: "tuple[str, ...] | None", solver: Any,
                     start: int) -> Any:
        """One flat chunk through the engine's chunk loop (``param-batch``).

        The batch step is :func:`solve_stacked`; each cell it rejects is
        rescued through its corner's per-frequency fallback chain.  Flat
        cell ``g`` (global) is frequency ``g // M``, corner ``g % M`` —
        frequency-major, so corner ``m``'s values are the stride-``M``
        slice of the flat sweep values.  Failure records carry
        chunk-local flat indices that the executor offsets to global
        flat indices, which :func:`corner_psd_sweep` maps back to
        per-corner ``(frequency, corner)`` identities.
        """
        del solver  # always "param-batch"

        def batch_step(finite_idx: np.ndarray,
                       values: FloatArray) -> "list[int]":
            return solve_stacked(self.members, self.recorder, freqs, start,
                                 finite_idx, values, report, labels)

        def point_step(idx: int, frequency: float) -> Any:
            m = (start + idx) % self.n_corners
            return (self.members[m]._strategies(frequency, labels),
                    {"corner": self.grid.names[m], "rescued": True})

        return sweep_chunk(freqs, on_failure, report, labels, self.recorder,
                           batch_step, point_step)

    def _spectral_block(self, n_cells: int,
                        labels: "tuple[str, ...] | None") -> int:
        """Flat cells per executor chunk at the default chunk size.

        Whole frequency slices (a multiple of M cells) of
        :func:`stacked_block_size` frequencies.
        """
        return self.n_corners * stacked_block_size(
            self.members, n_cells // self.n_corners, labels)


# -- the stacked-row step of every batched sweep --------------------------


def stacked_block_size(members: Sequence[MftNoiseAnalyzer], n_freq: int,
                       labels: "tuple[str, ...] | None") -> int:
    """Frequencies per ω-block of a batched sweep over ``members``.

    Sized by :func:`~repro.mft.executor.spectral_block_size` for the
    largest stacked kernel call — the dynamics group with the most
    kernel rows (:func:`_row_slots`), ``1 + n_sources`` rows each for an
    attribution request.
    """
    from .executor import spectral_block_size
    groups: "dict[int, list[int]]" = {}
    for m, member in enumerate(members):
        groups.setdefault(member.context.dynamics_key, []).append(m)
    width = 1 if labels is None else 1 + len(labels)
    n_rows = width * max(len(_row_slots(members, group))
                         for group in groups.values())
    return spectral_block_size(members[0].context, n_freq, n_rows)


def solve_stacked(members: Sequence[MftNoiseAnalyzer], recorder: Any,
                  freqs: FloatArray, start: int, finite_idx: np.ndarray,
                  values: FloatArray, report: DiagnosticsReport,
                  labels: "tuple[str, ...] | None") -> "list[int]":
    """One stacked kernel call per dynamics group; returns rescue cells.

    The batch step of every ``spectral-batch`` and ``param-batch``
    chunk.  ``freqs`` is a chunk of the flat ``(frequency, member)``
    axis starting at flat cell ``start``: cell ``g`` belongs to member
    ``g % len(members)`` (a plain sweep passes ``[analyzer]``, so every
    cell is its own frequency).  Cells are partitioned by the dynamics
    group of their member; each group concatenates its kernel rows
    (:func:`_row_plan`) and solves them against the union of the
    group's chunk frequencies in **one** :func:`solve_spectral_batch`
    call on the group's first context — one stack of step integrals per
    segment group and one LU per frequency serving every row — then
    slices the rows back per plan.  Each row is bit-identical to solving
    it alone.  ``values`` is filled in place for the accepted cells; the
    chunk-local indices of the cells the batched solve rejected are
    returned, group by group.
    """
    policy = members[0].fallback
    condition_limit = (policy.condition_limit
                       if policy is not None else None)

    # Partition the chunk's finite cells by dynamics group, groups and
    # their members in first-appearance order, each member's cells in
    # chunk order — index arrays, not a walk over cells.
    keys = np.asarray([member.context.dynamics_key for member in members])
    freq_of = np.asarray(freqs, dtype=float)
    finite = np.asarray(finite_idx, dtype=int)
    corner_of = (start + finite) % len(members)
    cell_key = keys[corner_of]

    rescue: "list[int]" = []
    for key in _first_appearance(cell_key):
        in_group = cell_key == key
        group = _first_appearance(corner_of[in_group]).tolist()
        group_cells = finite[in_group]
        group_corner = corner_of[in_group]
        cells = {m: group_cells[group_corner == m] for m in group}
        # Union of the group's chunk frequencies, first-appearance order
        # over the member-major cell order (the chunk's own order for
        # one member); ``freq_pos[local]`` is its slot in the union.
        ordered = np.concatenate([cells[m] for m in group])
        distinct, first, inverse = np.unique(
            freq_of[ordered], return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        union = distinct[order]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        freq_pos = np.empty(freq_of.size, dtype=int)
        freq_pos[ordered] = rank[inverse.reshape(-1)]
        omegas = 2.0 * np.pi * np.asarray(union)
        plans = _row_plan(members, group, labels)
        blocks = [forcing if forcing.ndim == 4 else forcing[None]
                  for _context, forcing, _owners in plans]
        bounds = np.cumsum([0] + [block.shape[0] for block in blocks])
        with recorder.span("spectral.batch", n=len(union),
                           n_params=len(group), n_rows=len(plans)):
            batch = solve_spectral_batch(
                plans[0][0], omegas, np.concatenate(blocks),
                condition_limit=condition_limit, recorder=recorder)
        # One period for the group; the structure is the dynamics
        # root's, so no derived member builds a discretization.
        period = plans[0][0].structure.period
        n_solved = 0
        for slot, (_context, forcing, owners) in enumerate(plans):
            lo, hi = bounds[slot], bounds[slot + 1]
            rows = slice(lo, hi) if forcing.ndim == 4 else lo
            result = replace(
                batch, integral=batch.integral[rows], v0=batch.v0[rows])
            for m, multiplier in owners:
                # Uniform intensity members share their dynamics root's
                # kernel row: S(αQ) = α·S(Q) exactly, so the solved row
                # is rescaled per member (α = 1.0 for the row owner — a
                # bit-exact multiply).
                psd, ok = kernel_values(
                    result, members[m]._l_row, period, labels, multiplier)
                local = cells[m]
                pos = freq_pos[local]
                accepted = ok[pos]
                values[local[accepted]] = psd[pos[accepted]]
                n_solved += int(np.count_nonzero(accepted))
                rescue.extend(local[~accepted].tolist())
        report.info(
            "spectral-batch",
            f"stacked kernel solved {n_solved} of {ordered.size} cells "
            f"across {len(group)} parameter points with {len(plans)} "
            "kernel rows in one call",
            n_batched=n_solved,
            n_rescued=ordered.size - n_solved,
            n_params=len(group), n_rows=len(plans))
    return rescue


def _row_slots(members: Sequence[MftNoiseAnalyzer], group: "list[int]"
               ) -> "list[tuple[SweepContext, list[tuple[int, float]]]]":
    """Kernel-row owners for one dynamics group: ``(context, owners)``.

    Members whose context is a uniform intensity derivation of the same
    root *share one kernel row* — the root's forcing — and are recovered
    after the solve as ``α² · psd_root`` (noise PSDs are exactly linear
    in uniform source intensity).  This is where the corner batch beats
    per-corner sweeps: an all-uniform group of M corners costs one row
    of per-frequency kernel arithmetic, not M.  Per-source (non-uniform)
    scalings keep their own row, as does any context the sweep cannot
    prove is a derivation.  ``owners`` lists ``(member_index,
    multiplier)`` per row, the row's first owner first.
    """
    slots: "list[tuple[SweepContext, list[tuple[int, float]]]]" = []
    slot_of_root: "dict[int, int]" = {}
    for m in group:
        context = members[m].context
        root = getattr(context, "parent", None)
        uniform = getattr(context, "_uniform", None)
        if root is None and not hasattr(context, "_scales"):
            root, uniform = context, 1.0  # the dynamics root itself
        if root is None or uniform is None:
            slots.append((context, [(m, 1.0)]))
            continue
        slot = slot_of_root.get(id(root))
        if slot is None:
            slot_of_root[id(root)] = len(slots)
            slots.append((root, [(m, float(uniform))]))
        else:
            slots[slot][1].append((m, float(uniform)))
    return slots


def _row_plan(members: Sequence[MftNoiseAnalyzer], group: "list[int]",
              labels: "tuple[str, ...] | None"
              ) -> "list[tuple[SweepContext, FloatArray, list[tuple[int, float]]]]":
    """Kernel rows for one dynamics group: ``(context, forcing, owners)``.

    The slots of :func:`_row_slots`, each with its forcing rows built
    from its first owner's output row.
    """
    return [(context,
             forcing_rows(context, members[owners[0][0]]._l_row, labels),
             owners)
            for context, owners in _row_slots(members, group)]


@dataclass
class CornerSweepResult:
    """Corner-shaped view of one parameter-batched PSD sweep.

    ``values[m, k]`` is corner ``m``'s (clipped) PSD at
    ``frequencies[k]`` in V²/Hz; NaN where that cell failed.
    Per-corner failure records carry the corner's *own* frequency
    indices; ``diagnostics`` is the whole-sweep report and ``info``
    the executor metadata of the underlying flat sweep.
    """

    frequencies: FloatArray
    values: FloatArray
    corner_names: "list[str]"
    failures: "dict[str, list[FrequencyFailure]]"
    diagnostics: DiagnosticsReport
    info: "dict[str, Any]"
    budgets: "dict[str, Any] | None" = None
    method: str = "mft"
    solver: str = "param-batch"
    output: str = ""

    @property
    def n_corners(self) -> int:
        return self.values.shape[0]

    def corner(self, which: "int | str") -> PsdResult:
        """One corner's sweep as an ordinary :class:`PsdResult`."""
        if isinstance(which, str):
            try:
                index = self.corner_names.index(which)
            except ValueError:
                raise ReproError(
                    f"unknown corner {which!r}; names are "
                    f"{self.corner_names}") from None
        else:
            index = int(which)
            if not 0 <= index < self.n_corners:
                raise ReproError(
                    f"corner index {index} out of range for "
                    f"{self.n_corners} corners")
        name = self.corner_names[index]
        info: "dict[str, Any]" = {
            "corner": name,
            "failures": list(self.failures.get(name, [])),
            "diagnostics": self.diagnostics,
            "budget": (self.budgets or {}).get(name),
        }
        return PsdResult(frequencies=self.frequencies,
                         psd=np.array(self.values[index]),
                         method=self.method, output=self.output,
                         info=info)

    def worst_corners(self, frequency: "float | None" = None
                      ) -> "list[tuple[str, float]]":
        """Corners ranked worst-first by peak PSD (or PSD at one f).

        With ``frequency`` given the ranking key is the PSD at the
        nearest grid frequency; otherwise each corner's maximum over
        the grid.  NaN-only corners rank last with a NaN key.
        """
        if frequency is None:
            with np.errstate(all="ignore"):
                keys = np.nanmax(np.where(np.isfinite(self.values),
                                          self.values, -np.inf), axis=1)
            keys = np.where(np.isfinite(keys), keys, np.nan)
        else:
            k = int(np.argmin(np.abs(self.frequencies
                                     - float(frequency))))
            keys = self.values[:, k]
        order = np.argsort(-np.nan_to_num(keys, nan=-np.inf))
        return [(self.corner_names[i], float(keys[i])) for i in order]

    def to_table(self, frequency: "float | None" = None,
                 limit: "int | None" = None) -> str:
        """Ranked worst-corner table (the README quickstart's output).

        Values are double-sided PSDs in V²/Hz — peak over the grid, or
        at the grid frequency nearest ``frequency`` when given.
        """
        ranked = self.worst_corners(frequency)
        if limit is not None:
            ranked = ranked[:int(limit)]
        label = ("peak PSD [V^2/Hz]" if frequency is None
                 else f"PSD @ {frequency:g} Hz [V^2/Hz]")
        name_width = max([len("corner")]
                         + [len(name) for name, _v in ranked])
        lines = [f"{'corner'.ljust(name_width)}  {label}",
                 f"{'-' * name_width}  {'-' * len(label)}"]
        for name, value in ranked:
            lines.append(f"{name.ljust(name_width)}  {value:.6e}")
        return "\n".join(lines)

    def to_json(self) -> "dict[str, Any]":
        """JSON-ready payload; inverse is
        :func:`repro.results.from_payload`."""
        from ..results import to_payload
        return to_payload(self)

    def to_csv(self, path: Any) -> Any:
        """Write the corner matrix as CSV; returns the path.

        One row per frequency: ``frequency_hz`` then one double-sided
        V²/Hz column per corner (NaN where that cell failed).
        """
        from ..io import write_csv
        headers = ["frequency_hz"] + list(self.corner_names)
        rows = list(zip(self.frequencies,
                        *(self.values[m] for m in range(self.n_corners))))
        return write_csv(path, headers, rows)

    def __repr__(self) -> str:
        return (f"CornerSweepResult({self.n_corners} corners x "
                f"{self.frequencies.size} frequencies, "
                f"output={self.output!r})")


def _build_members(model_or_system: Any, grid: ParameterGrid,
                   output_row: int, segments_per_phase: int,
                   recorder: Any,
                   context: "SweepContext | None" = None
                   ) -> "list[MftNoiseAnalyzer]":
    """One context-backed analyzer per corner, sharing dynamics work.

    Corners are grouped by dynamics overrides; each distinct dynamics
    point gets one *root* context (and one preflight, shared by every
    member on it).  The override-free corners' root is ``context`` when
    given and its system fingerprints as theirs; any other root is the
    context registered under the grid's family-salted key
    (:func:`~repro.mft.context.sweep_context_for`) when there is one,
    else a private one.  Intensity-only variations on a root derive
    their context from it instead of rebuilding — the nearly-free path —
    and are never registered.  Nothing here inserts into the registry.
    """
    from ..circuits.corners import scale_system_noise

    family = grid.family_hash()
    base_system = _system_of(model_or_system)
    noise_labels = getattr(model_or_system, "noise_labels", None)
    nominal_key = (None if context is None else
                   _base_context_key(context, base_system,
                                     segments_per_phase))

    roots: "dict[tuple[tuple[str, str], ...], tuple[Any, SweepContext]]" = {}
    members: "list[MftNoiseAnalyzer]" = []
    for index, corner in enumerate(grid.corners):
        dyn_key = corner.overrides_key()
        root = roots.get(dyn_key)
        if root is None:
            built = grid.build_model(index)
            system = base_system if built is None else _system_of(built)
            if nominal_key is not None and not corner.overrides and (
                    built is None or discretization_fingerprint(
                        system, segments_per_phase) == nominal_key):
                root_context = context
            else:
                root_context = (
                    _registered_context(system, segments_per_phase, family)
                    or SweepContext(system, segments_per_phase))
            root = roots[dyn_key] = (system, root_context)
        system, root_context = root

        scale = corner.uniform_scale
        if scale is not None and scale == 1.0:
            member_system, member_context = system, root_context
        else:
            if scale is None:
                scales = corner.resolved_scales(noise_labels,
                                                root_context.n_sources)
            else:
                scales = np.atleast_1d(np.asarray(scale, dtype=float))
            member_system = scale_system_noise(system, scales)
            member_context = root_context.derive_intensity_scaled(
                scales, system=member_system)

        # Every member on a root shares one preflight report: the root
        # context validates its own discretization once, and a derived
        # context hands out its root's report.
        members.append(MftNoiseAnalyzer(
            member_system, segments_per_phase=segments_per_phase,
            output_row=output_row, context=member_context,
            preflight=True, recorder=recorder))
    return members


def corner_psd_sweep(model_or_system: Any, grid: ParameterGrid,
                     frequencies: Any, *, output_row: int = 0,
                     segments_per_phase: int = 64,
                     chunk_size: "int | None" = None,
                     budget: Any = None, on_failure: str = "record",
                     attribute_sources: Any = False,
                     recorder: Any = None,
                     context: "SweepContext | None" = None
                     ) -> CornerSweepResult:
    """PSD of every corner of ``grid`` in one parameter-batched sweep.

    Values are the library's canonical **double-sided** PSD samples in
    V²/Hz (or A²/Hz for current outputs) — corner for corner the same
    quantity M independent ``psd_sweep`` calls would produce.

    ``model_or_system`` is the *base* circuit (a builder model or bare
    LPTV system) used for corners without dynamics overrides; corners
    with overrides build their own model through the grid's builder.
    Returns a :class:`CornerSweepResult` with values ``(M, K)`` plus
    per-corner failures and (optionally) attribution budgets.

    ``context`` is the :class:`~repro.mft.context.SweepContext` of the
    base circuit, as on :class:`~repro.mft.engine.MftNoiseAnalyzer`:
    the override-free corners draw from it, so a base circuit an
    analysis has already discretized is not discretized again.  It
    must be a dynamics root (not intensity-derived) whose system and
    density fingerprint as ``model_or_system`` at ``segments_per_phase``;
    anything else raises :class:`~repro.errors.ReproError`.  The other
    dynamics roots come from the registry when a caller registered them
    under the grid's family hash, else each gets a private context.

    ``chunk_size`` counts **frequencies** per executor chunk (each flat
    chunk holds that many frequencies × all M corners).  The default is
    the whole grid — one chunk, so one budget decision — unless the
    largest stacked kernel call would exceed
    :data:`~repro.mft.executor.SPECTRAL_STACK_CAP_BYTES`; then the
    largest frequency count that fits.  Intensity-only corners derive
    their context from the dynamics root (shared propagators/bases,
    linear restack — the nearly-free path, ≤1e-12 from a fresh build).  ``budget`` and
    ``on_failure`` are the usual executor knobs on the flattened axis —
    a budget-skipped chunk NaNs exactly its ``(corner, frequency)``
    cells.
    """
    from .executor import SweepExecutor, _positive_int

    if not isinstance(grid, ParameterGrid):
        raise ReproError(
            f"grid must be a ParameterGrid, got {type(grid).__name__}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    n_corners = len(grid)
    members = _build_members(model_or_system, grid, output_row,
                             segments_per_phase, recorder, context)
    analyzer = CornerBatchAnalyzer(members, grid, recorder=recorder,
                                   budget=budget)

    chunk_size = _positive_int("chunk_size", chunk_size, None)
    executor = SweepExecutor(
        chunk_size=None if chunk_size is None else chunk_size * n_corners,
        solver="param-batch")
    flat = executor.run(analyzer, np.repeat(freqs, n_corners),
                        budget=budget, on_failure=on_failure,
                        attribute_sources=attribute_sources)

    # Reshape the flat result to corner shape: flat cell i is frequency
    # i // M, corner i % M, so corner m's sweep is the stride-M slice.
    values = np.asarray(flat.psd).reshape(freqs.size, n_corners).T.copy()
    names = grid.names
    failures: "dict[str, list[FrequencyFailure]]" = {}
    for failure in flat.info.get("failures", []):
        m = failure.index % n_corners
        k = failure.index // n_corners
        failures.setdefault(names[m], []).append(
            FrequencyFailure(frequency=failure.frequency, index=k,
                             stage=failure.stage, error=failure.error,
                             message=failure.message))
    budgets = _split_budgets(flat.info.get("budget"), freqs, names)
    info = dict(flat.info)
    info["n_params"] = n_corners
    info["family_hash"] = grid.family_hash()
    info["flat_result"] = flat
    return CornerSweepResult(
        frequencies=freqs, values=values, corner_names=list(names),
        failures=failures, diagnostics=flat.info["diagnostics"],
        info=info, budgets=budgets, output=flat.output)


def _base_context_key(context: Any, system: Any,
                      segments_per_phase: Any) -> str:
    """The fingerprint of a base-circuit ``context=``, else ``ReproError``.

    Rejects anything but a dynamics root whose system and density
    fingerprint as ``system`` at ``segments_per_phase``.
    """
    if not isinstance(context, SweepContext):
        raise ReproError(
            f"context must be a SweepContext, got {type(context).__name__}")
    if hasattr(context, "parent"):
        raise ReproError(
            "context must be a dynamics root, not an intensity-derived "
            "context")
    key = discretization_fingerprint(context.system,
                                     context.segments_per_phase)
    if key != discretization_fingerprint(system, segments_per_phase):
        raise ReproError(
            "context is for a different system or density than the base "
            f"circuit at segments_per_phase={segments_per_phase!r}")
    return key


def _split_budgets(flat_budget: Any, freqs: FloatArray,
                   names: "Sequence[str]"
                   ) -> "dict[str, Any] | None":
    """Slice a flattened attribution budget into per-corner budgets."""
    if flat_budget is None:
        return None
    from ..metrics import ContributionBudget
    n_corners = len(names)
    contributions = np.asarray(flat_budget.contributions)
    total = np.asarray(flat_budget.total)
    budgets: "dict[str, Any]" = {}
    for m, name in enumerate(names):
        budgets[name] = ContributionBudget(
            frequencies=freqs,
            labels=list(flat_budget.labels),
            contributions=np.ascontiguousarray(
                contributions[:, m::n_corners]),
            total=np.ascontiguousarray(total[m::n_corners]),
            output=flat_budget.output, method=flat_budget.method,
            solver="param-batch")
    return budgets
