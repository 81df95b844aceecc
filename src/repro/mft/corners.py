"""Corner/mismatch PSD sweeps through one parameter-batched kernel.

A corner sweep evaluates one circuit family — an M-corner
:class:`~repro.circuits.corners.ParameterGrid` — over one frequency
grid.  Corners that share dynamics overrides share one *dynamics root*:
one context, one preflight and one stacked kernel call per ω-block.
The paper's noise sources are independent and white, so the PSD is a
sum of per-source terms, each exactly linear in its own intensity.  An
intensity corner therefore needs no solve of its own: it is a linear
map of its root's ``[total, source…]`` kernel rows (:class:`RootMap`).
A uniform corner with PSD scale α reads ``α·[total, source…]``; a
per-source corner with scales ``α_1 … α_n`` reads ``α_k·S_k`` as its
source rows and their sum as its total.  A root solves only its total
row when every corner on it is uniform and no attribution is asked,
and ``1 + n_sources`` rows otherwise.

The module flattens the ``(corner, frequency)`` product into one
frequency-major axis (flat cell ``i`` = frequency ``i // M``, corner
``i % M``) and sweeps it with :func:`~repro.mft.executor.run_sweep`
over its roots — the one sweep loop, so chunking, the budget gate and
the partial-failure contract are those of every sweep — whose chunks
call :func:`repro.mft.spectral.solve_spectral_batch` once per root.

Fallback is per root and frequency (DESIGN.md §12): a frequency whose
batched solve a root rejects (condition gate, singular fixed point,
non-finite value) runs the root's per-frequency fallback chain
(:mod:`repro.diagnostics.fallback`) once, attributed when a corner on
the root needs source values, and the result is mapped to every corner
on the root, which share its failure records.

The chunk steps (:func:`chunk_steps`, batched by :func:`solve_stacked`)
take a list of root maps, so they serve every sweep: a plain
``psd_sweep`` runs them with its own analyzer as the one root of one
unit-scale corner, where the flat axis *is* the frequency axis — the
parity battery in ``tests/test_corner_sweep.py`` pins an ``M = 1``
corner sweep bit for bit to the plain ``spectral-batch`` sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    psd_rows,
)
from .engine import MftNoiseAnalyzer
from .spectral import solve_spectral_batch

__all__ = ["CornerSweepResult", "corner_psd_sweep"]


def _system_of(model_or_system: Any) -> Any:
    """The LPTV system behind a builder result (model or bare system)."""
    system = getattr(model_or_system, "system", None)
    return system if system is not None else model_or_system


@dataclass
class RootMap:
    """One dynamics root and the linear map from its rows to its corners.

    ``analyzer`` sweeps the root's own system on the root's context;
    ``corners`` lists the grid indices of the corners on the root,
    ascending, and ``scales[j]`` is corner ``corners[j]``'s noise PSD
    scale: a float α for a uniform corner, an ``(n_sources,)`` array
    for a per-source one.
    """

    analyzer: MftNoiseAnalyzer
    corners: "list[int]"
    scales: "list[Any]"

    @classmethod
    def single(cls, analyzer: MftNoiseAnalyzer) -> "RootMap":
        """A plain sweep: the analyzer as the root of one unit corner."""
        return cls(analyzer, [0], [1.0])

    @property
    def needs_sources(self) -> bool:
        """Whether a corner on the root reads the root's source rows."""
        return any(np.ndim(scale) for scale in self.scales)

    def row_labels(self, labels: "tuple[str, ...] | None"
                   ) -> "tuple[str, ...] | None":
        """The labels of the root's ``[total, source…]`` kernel rows.

        The attribution request when there is one; else positional
        source labels when a per-source corner needs the source rows;
        else ``None``, the total row alone.
        """
        if labels is None and self.needs_sources:
            return self.analyzer._attribution_request(True)
        return labels

    def n_rows(self, labels: "tuple[str, ...] | None") -> int:
        """Kernel rows the root solves: its total, plus its sources if read."""
        row_labels = self.row_labels(labels)
        return 1 if row_labels is None else 1 + len(row_labels)

    def map_rows(self, rows: FloatArray, slots: Any,
                 attributed: bool) -> FloatArray:
        """The values of the corners at ``slots`` from the root's rows.

        ``rows[..., r]`` is the root's row ``r`` (the total, then one
        row per source when solved); returns ``(..., len(slots))``, or
        ``(..., len(slots), 1 + n_sources)`` rows of ``[total,
        source…]`` when ``attributed``.
        """
        return np.stack([_map_rows(rows, self.scales[j], attributed)
                         for j in slots], axis=rows.ndim - 1)


def _map_rows(rows: FloatArray, scale: Any, attributed: bool) -> FloatArray:
    """One corner's values from its root's ``[total, source…]`` rows.

    A uniform corner (scalar α) is α times the root's rows, so its
    total is bit for bit α times the root's total.  A per-source corner
    reads ``α_k·S_k`` as its source rows and their sum as its total.
    """
    if np.ndim(scale) == 0:
        return scale * (rows if attributed else rows[..., 0])
    sources = rows[..., 1:] * scale
    total = sources.sum(axis=-1)
    if not attributed:
        return total
    return np.concatenate([total[..., None], sources], axis=-1)


def corner_index(roots: Sequence[RootMap]
                 ) -> "tuple[np.ndarray, np.ndarray]":
    """Each corner's root and its slot in that root's map.

    Built once per sweep (:func:`~repro.mft.executor.run_sweep`) and
    handed to every chunk's steps; its length is the corner count M.
    """
    n_corners = sum(len(root.corners) for root in roots)
    root_of = np.empty(n_corners, dtype=int)
    slot_of = np.empty(n_corners, dtype=int)
    for r, root in enumerate(roots):
        root_of[root.corners] = r
        slot_of[root.corners] = np.arange(len(root.corners))
    return root_of, slot_of


# -- the chunk steps of every sweep -----------------------------------------


def chunk_steps(roots: Sequence[RootMap], index: Any, solver: str,
                freqs: FloatArray, start: int, report: DiagnosticsReport,
                labels: "tuple[str, ...] | None") -> Any:
    """The ``(batch_step, point_step)`` pair of one sweep chunk.

    ``freqs`` is a chunk of the flat frequency-major axis starting at
    flat cell ``start`` (cell ``g`` is corner ``g % M``).  Under
    ``"spectral-batch"`` the batch step is :func:`solve_stacked`; under
    ``"mft"`` it solves nothing and gives one rescue unit per finite
    cell.  The point step runs the fallback strategies of the unit's
    root once, each mapped through :meth:`RootMap.map_rows` to the
    unit's corners (a plain sweep's one unit-scale corner reads its
    root's value exactly).  ``index`` is the sweep's
    :func:`corner_index` of ``roots``.
    """
    root_of, slot_of = index
    n_corners = root_of.size
    recorder = roots[0].analyzer.recorder
    if solver == "spectral-batch":
        tags = {"rescued": True}

        def batch_step(finite_idx: np.ndarray,
                       values: FloatArray) -> "list[np.ndarray]":
            return solve_stacked(roots, index, recorder, freqs, start,
                                 finite_idx, values, report, labels)
    else:
        tags = {}

        def batch_step(finite_idx: np.ndarray,
                       values: FloatArray) -> "list[np.ndarray]":
            return list(finite_idx[:, None])

    def point_step(cells: np.ndarray, frequency: float) -> Any:
        corners = (start + cells) % n_corners
        root = roots[root_of[corners[0]]]
        slots = slot_of[corners]

        def mapped(solve: Any) -> Any:
            return lambda: root.map_rows(np.atleast_1d(solve()), slots,
                                         labels is not None)

        strategies = root.analyzer._strategies(frequency,
                                               root.row_labels(labels))
        return [(name, mapped(solve)) for name, solve in strategies], tags

    return batch_step, point_step


def solve_stacked(roots: Sequence[RootMap], index: Any, recorder: Any,
                  freqs: FloatArray, start: int, finite_idx: np.ndarray,
                  values: FloatArray, report: DiagnosticsReport,
                  labels: "tuple[str, ...] | None"
                  ) -> "list[np.ndarray]":
    """One stacked kernel call per dynamics root; returns rescue units.

    The batch step of every ``spectral-batch`` chunk, plain or corner
    (:func:`chunk_steps`).  ``freqs`` is a chunk of the flat
    ``(frequency, corner)`` axis starting at flat cell ``start``: cell
    ``g`` belongs to corner ``g % M`` for the ``M`` corners the roots
    map (a plain sweep passes one root of one corner, so every cell is
    its own frequency).  Each
    root solves its kernel rows (:meth:`RootMap.row_labels`) against
    the distinct frequencies of its cells in **one**
    :func:`solve_spectral_batch` call — one stack of step integrals per
    segment group and one LU per frequency serving every row — and
    each corner reads its map of those rows (:meth:`RootMap.map_rows`).
    ``values`` is filled in place for the accepted cells.  Returns the
    cells the batched solve rejected as rescue units: per root, the
    chunk-local cells of each rejected frequency index.  ``index`` is
    the sweep's :func:`corner_index` of ``roots``.
    """
    root_of, slot_of = index
    n_corners = root_of.size
    freq_of = np.asarray(freqs, dtype=float)
    finite = np.asarray(finite_idx, dtype=int)
    cell_root = root_of[(start + finite) % n_corners]

    rescue: "list[np.ndarray]" = []
    for r in np.unique(cell_root):
        root = roots[r]
        analyzer = root.analyzer
        context = analyzer.context
        cells = finite[cell_root == r]
        union, pos = np.unique(freq_of[cells], return_inverse=True)
        row_labels = root.row_labels(labels)
        n_rows = root.n_rows(labels)
        forcing = context.forcing_stack(analyzer._l_row,
                                        row_labels is not None)
        policy = analyzer.fallback
        with recorder.span("spectral.batch", n=len(union),
                           n_params=len(root.corners), n_rows=n_rows):
            batch = solve_spectral_batch(
                context, 2.0 * np.pi * union, forcing,
                condition_limit=(policy.condition_limit
                                 if policy is not None else None),
                recorder=recorder)
        # (n_freq, R) rows of [total, source…]; a frequency is accepted
        # when the kernel solved it and every value is finite.
        rows = psd_rows(batch.integral, analyzer._l_row,
                        context.structure.period).T
        ok = batch.ok & np.all(np.isfinite(rows), axis=1)
        slots = slot_of[(start + cells) % n_corners]
        accepted = ok[pos]
        mapped = root.map_rows(rows, range(len(root.corners)),
                               labels is not None)
        values[cells[accepted]] = mapped[pos[accepted], slots[accepted]]
        rejected = cells[~accepted]
        index = (start + rejected) // n_corners
        rescue.extend(rejected[index == k] for k in np.unique(index))
        n_solved = cells.size - rejected.size
        report.info(
            "spectral-batch",
            f"stacked kernel solved {n_solved} of {cells.size} cells "
            f"across {len(root.corners)} parameter points with {n_rows} "
            "kernel rows in one call",
            n_batched=n_solved, n_rescued=int(rejected.size),
            n_params=len(root.corners), n_rows=n_rows)
    return rescue


@dataclass
class CornerSweepResult:
    """Corner-shaped view of one parameter-batched PSD sweep.

    ``values[m, k]`` is corner ``m``'s (clipped) PSD at
    ``frequencies[k]`` in V²/Hz; NaN where that cell failed.
    Per-corner failure records carry the corner's *own* frequency
    indices; ``diagnostics`` is the whole-sweep report.  ``info``
    keeps the flat sweep's metadata (runtime, solver, segments,
    clipping, fallback attempts, ``executor`` chunking) plus
    ``n_params`` and ``family_hash``; its failures and budget live here
    in corner shape.  ``info["solver"]`` and
    ``info["executor"]["solver"]`` name the flat sweep's kernel
    (``"spectral-batch"``), while :attr:`solver` and each per-corner
    budget's ``solver`` keep the payload label ``"param-batch"``.
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


def _build_roots(model_or_system: Any, grid: ParameterGrid,
                 output_row: int, segments_per_phase: int, recorder: Any,
                 context: "SweepContext | None" = None) -> "list[RootMap]":
    """One analyzer per dynamics root, mapping every corner on it.

    Corners are grouped by dynamics overrides; each distinct dynamics
    point gets one *root* analyzer (one context, one preflight) in the
    order of the corners that first name it.  The override-free
    corners' root context is ``context`` when given and its system
    fingerprints as theirs; any other root's is the context registered
    under the grid's family-salted key
    (:func:`~repro.mft.context.sweep_context_for`) when there is one,
    else a private one.  Each corner enters its root's map with its
    noise PSD scale (:class:`RootMap`), resolved against the base
    model's noise labels for a per-source corner.  Nothing here inserts
    into the registry.
    """
    family = grid.family_hash()
    base_system = _system_of(model_or_system)
    noise_labels = getattr(model_or_system, "noise_labels", None)
    nominal_key = (None if context is None else
                   _base_context_key(context, base_system,
                                     segments_per_phase))

    roots: "dict[tuple[tuple[str, str], ...], RootMap]" = {}
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
            root = roots[dyn_key] = RootMap(MftNoiseAnalyzer(
                system, segments_per_phase=segments_per_phase,
                output_row=output_row, context=root_context,
                preflight=True, recorder=recorder), [], [])
        scale: Any = corner.uniform_scale
        if scale is None:
            scale = corner.resolved_scales(
                noise_labels, root.analyzer.context.n_sources)
        root.corners.append(index)
        root.scales.append(scale)
    return list(roots.values())


#: The keys of the flat sweep's ``info`` a corner result keeps.
_CORNER_INFO_KEYS = ("runtime_seconds", "solver", "segments",
                     "negative_clipped", "worst_negative_psd",
                     "fallback_attempts", "executor")


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
    analysis has already discretized is not discretized again.  Its
    system and density must fingerprint as ``model_or_system`` at
    ``segments_per_phase``; anything else raises
    :class:`~repro.errors.ReproError`.  The other dynamics roots come
    from the registry when a caller registered them under the grid's
    family hash, else each gets a private context.

    Corners differing only in noise intensity share their dynamics
    root's kernel rows: each reads a linear map of the root's
    ``[total, source…]`` rows (module docstring), with no solve,
    context or discretization of its own.  That map is exact up to
    rounding for the rescaled circuit; a fresh build of the rescaled
    system rounds its Gramians and covariance fixed point differently
    and reads ~2e-9 of max|PSD| away on the SC low-pass
    (:data:`~repro.tolerances.CORNER_INTENSITY_RESTACK_RTOL` bounds
    it in the tests).

    ``chunk_size`` counts **frequencies** per chunk, as on every sweep
    (each flat chunk holds that many frequencies × all M corners).  The
    default is the whole grid — one chunk, so one budget decision —
    unless the largest stacked kernel call would exceed
    :data:`~repro.mft.executor.SPECTRAL_STACK_CAP_BYTES`; then the
    largest frequency count that fits.  ``budget`` and ``on_failure``
    are the usual sweep knobs on the flattened axis — a budget-skipped
    chunk NaNs exactly its ``(corner, frequency)`` cells.
    """
    from .executor import run_sweep

    if not isinstance(grid, ParameterGrid):
        raise ReproError(
            f"grid must be a ParameterGrid, got {type(grid).__name__}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    n_corners = len(grid)
    roots = _build_roots(model_or_system, grid, output_row,
                         segments_per_phase, recorder, context)
    flat = run_sweep(
        roots, np.repeat(freqs, n_corners), solver="spectral-batch",
        chunk_size=chunk_size, budget=budget, on_failure=on_failure,
        labels=roots[0].analyzer._attribution_request(attribute_sources))

    # Reshape the flat result to corner shape: flat cell i is frequency
    # i // M, corner i % M, so corner m's sweep is the stride-M slice.
    values = np.asarray(flat.psd).reshape(freqs.size, n_corners).T.copy()
    names = grid.names
    failures: "dict[str, list[FrequencyFailure]]" = {}
    for failure in flat.failures:
        m = failure.index % n_corners
        k = failure.index // n_corners
        failures.setdefault(names[m], []).append(
            FrequencyFailure(frequency=failure.frequency, index=k,
                             stage=failure.stage, error=failure.error,
                             message=failure.message))
    # Only the flat sweep's metadata: its failures, budget and report
    # have their corner-shaped forms on the result.
    info = {key: flat.info[key] for key in _CORNER_INFO_KEYS}
    info["n_params"] = n_corners
    info["family_hash"] = grid.family_hash()
    return CornerSweepResult(
        frequencies=freqs, values=values, corner_names=list(names),
        failures=failures, diagnostics=flat.diagnostics, info=info,
        budgets=_split_budgets(flat.budget, freqs, names),
        output=flat.output)


def _base_context_key(context: Any, system: Any,
                      segments_per_phase: Any) -> str:
    """The fingerprint of a base-circuit ``context=``, else ``ReproError``.

    Rejects anything but a :class:`SweepContext` whose system and
    density fingerprint as ``system`` at ``segments_per_phase``.
    """
    if not isinstance(context, SweepContext):
        raise ReproError(
            f"context must be a SweepContext, got {type(context).__name__}")
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
