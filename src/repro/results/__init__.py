"""Unified result-export protocol (`to_table` / `to_json` / `to_csv`).

Every user-facing result type — :class:`~repro.noise.result.PsdResult`
(plain and swept), :class:`~repro.mft.corners.CornerSweepResult`, and
:class:`~repro.metrics.ContributionBudget` — exports through the same
three verbs:

* ``to_table(**options) -> str`` — a fixed-width, diff-friendly text
  table (the README quickstart's output);
* ``to_json() -> dict`` — a JSON-ready payload that round-trips through
  :func:`from_payload` with failures, diagnostics, and attribution
  budgets preserved;
* ``to_csv(path) -> Path`` — a CSV file built on :mod:`repro.io`.

The tagged payloads (:func:`to_payload` / :func:`from_payload`) are the
wire format of the service layer's persistent result store
(:mod:`repro.service`): a stored job result is exactly one payload, and
a store hit reconstructs the original result type bit-for-bit on the
value arrays.
"""

from .protocol import Exportable
from .serialize import (
    PAYLOAD_KINDS,
    PAYLOAD_VERSION,
    from_payload,
    to_payload,
)

__all__ = [
    "Exportable",
    "PAYLOAD_KINDS",
    "PAYLOAD_VERSION",
    "from_payload",
    "to_payload",
]
