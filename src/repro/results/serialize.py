"""Tagged JSON payloads for every exportable result type.

:func:`to_payload` maps a result object to a ``{"kind": ..., ...}``
dict that ``json.dumps`` accepts; :func:`from_payload` inverts it.  The
failures, diagnostics, attribution budgets and fallback attempt logs
round-trip losslessly — these are the fields the service result store
must preserve — while free-form ``info`` metadata is kept when it is
JSON-representable and degraded to ``repr()`` strings otherwise (a
stored payload must never fail to serialize because an engine attached
a live object).

NaN encoding: failed samples stay ``NaN`` in the value arrays; Python's
``json`` emits/accepts them natively (``allow_nan``), and both store
backends read payloads back with the same module, so NaN masks survive
the round trip exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..diagnostics.fallback import AttemptRecord
from ..diagnostics.report import DiagnosticsReport, FrequencyFailure
from ..errors import ReproError

__all__ = ["PAYLOAD_KINDS", "PAYLOAD_VERSION", "from_payload",
           "to_payload"]

#: Bump when the payload layout changes incompatibly.
PAYLOAD_VERSION = 1

#: Tags understood by :func:`from_payload`.
PAYLOAD_KINDS = ("psd", "corner-sweep", "attribution-budget")


def _jsonify(value: Any) -> Any:
    """Best-effort JSON form of one free-form ``info`` value.

    Arrays become lists, known diagnostic objects their dict forms, and
    anything else that ``json.dumps`` rejects becomes its ``repr`` —
    lossy for exotic metadata, never a serialization failure.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, DiagnosticsReport):
        return {"__diagnostics__": _jsonify(value.to_dict())}
    if isinstance(value, (FrequencyFailure, AttemptRecord)):
        return _jsonify(value.to_dict())
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)
    return value


def _info_payload(info: dict[str, Any]) -> dict[str, Any]:
    """Serialize a result ``info`` dict, special-casing the contract keys."""
    out: dict[str, Any] = {}
    for key, value in info.items():
        if key == "diagnostics" and isinstance(value, DiagnosticsReport):
            out[key] = {"__diagnostics__": _jsonify(value.to_dict())}
        elif key == "failures":
            out[key] = [f.to_dict() for f in value]
        elif key == "budget" and value is not None:
            out[key] = to_payload(value)
        else:
            out[key] = _jsonify(value)
    return out


def _info_from_payload(info: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in info.items():
        if (isinstance(value, dict)
                and "__diagnostics__" in value):
            out[key] = DiagnosticsReport.from_dict(
                value["__diagnostics__"])
        elif key == "failures":
            out[key] = [FrequencyFailure.from_dict(f) for f in value]
        elif key == "budget" and value is not None:
            out[key] = from_payload(value)
        elif key == "fallback_attempts" and isinstance(value, list):
            # An entry an older payload stored as its repr stays a string.
            out[key] = [AttemptRecord.from_dict(a) if isinstance(a, dict)
                        else a for a in value]
        else:
            out[key] = value
    return out


def to_payload(result: Any) -> dict[str, Any]:
    """Tagged JSON-ready payload of one exportable result."""
    from ..metrics.attribution import ContributionBudget
    from ..mft.corners import CornerSweepResult
    from ..noise.result import PsdResult

    if isinstance(result, PsdResult):
        return {
            "kind": "psd",
            "version": PAYLOAD_VERSION,
            "frequencies": result.frequencies.tolist(),
            "psd": result.psd.tolist(),
            "method": result.method,
            "output": result.output,
            "info": _info_payload(result.info),
        }
    if isinstance(result, CornerSweepResult):
        return {
            "kind": "corner-sweep",
            "version": PAYLOAD_VERSION,
            "frequencies": np.asarray(result.frequencies).tolist(),
            "values": np.asarray(result.values).tolist(),
            "corner_names": list(result.corner_names),
            "failures": {name: [f.to_dict() for f in failures]
                         for name, failures in result.failures.items()},
            "diagnostics": _jsonify(result.diagnostics.to_dict()),
            "info": {k: _jsonify(v) for k, v in result.info.items()},
            "budgets": (None if result.budgets is None else {
                name: (None if budget is None else to_payload(budget))
                for name, budget in result.budgets.items()}),
            "method": result.method,
            "solver": result.solver,
            "output": result.output,
        }
    if isinstance(result, ContributionBudget):
        return {
            "kind": "attribution-budget",
            "version": PAYLOAD_VERSION,
            "frequencies": result.frequencies.tolist(),
            "labels": list(result.labels),
            "contributions": result.contributions.tolist(),
            "total": result.total.tolist(),
            "output": result.output,
            "method": result.method,
            "solver": result.solver,
            "info": {k: _jsonify(v) for k, v in result.info.items()},
        }
    raise ReproError(
        "no payload serialization for result type "
        f"{type(result).__name__}; exportable kinds are {PAYLOAD_KINDS}")


def from_payload(payload: dict[str, Any]) -> Any:
    """Inverse of :func:`to_payload`; raises on unknown tags."""
    from ..metrics.attribution import ContributionBudget
    from ..mft.corners import CornerSweepResult
    from ..noise.result import PsdResult

    if not isinstance(payload, dict) or "kind" not in payload:
        raise ReproError(
            "result payload must be a dict with a 'kind' tag, got "
            f"{type(payload).__name__}")
    kind = payload["kind"]
    version = payload.get("version")
    if version != PAYLOAD_VERSION:
        raise ReproError(
            f"unsupported result payload version {version!r}; this "
            f"release reads version {PAYLOAD_VERSION}")
    if kind == "psd":
        return PsdResult(
            frequencies=np.asarray(payload["frequencies"], dtype=float),
            psd=np.asarray(payload["psd"], dtype=float),
            method=str(payload.get("method", "")),
            output=str(payload.get("output", "")),
            info=_info_from_payload(dict(payload.get("info", {}))))
    if kind == "corner-sweep":
        budgets = payload.get("budgets")
        return CornerSweepResult(
            frequencies=np.asarray(payload["frequencies"], dtype=float),
            values=np.asarray(payload["values"], dtype=float),
            corner_names=[str(n) for n in payload["corner_names"]],
            failures={
                str(name): [FrequencyFailure.from_dict(f)
                            for f in failures]
                for name, failures in payload["failures"].items()},
            diagnostics=DiagnosticsReport.from_dict(
                payload["diagnostics"]),
            info=_info_from_payload(dict(payload.get("info", {}))),
            budgets=(None if budgets is None else {
                str(name): (None if budget is None
                            else from_payload(budget))
                for name, budget in budgets.items()}),
            method=str(payload.get("method", "mft")),
            solver=str(payload.get("solver", "param-batch")),
            output=str(payload.get("output", "")))
    if kind == "attribution-budget":
        return ContributionBudget(
            frequencies=np.asarray(payload["frequencies"], dtype=float),
            labels=[str(label) for label in payload["labels"]],
            contributions=np.asarray(payload["contributions"],
                                     dtype=float),
            total=np.asarray(payload["total"], dtype=float),
            output=str(payload.get("output", "")),
            method=str(payload.get("method", "")),
            solver=payload.get("solver"),
            info=dict(payload.get("info", {})))
    raise ReproError(
        f"unknown result payload kind {kind!r}; expected one of "
        f"{PAYLOAD_KINDS}")
