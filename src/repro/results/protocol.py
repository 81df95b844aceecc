"""The :class:`Exportable` protocol every result type implements."""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

__all__ = ["Exportable"]


@runtime_checkable
class Exportable(Protocol):
    """Structural type of every exportable result.

    ``isinstance(obj, Exportable)`` checks the three protocol methods
    are present — the test battery asserts it for every result type the
    library returns.
    """

    def to_table(self, **options: Any) -> str:
        """Fixed-width text table of the result."""

    def to_json(self) -> dict[str, Any]:
        """JSON-ready payload; inverse is
        :func:`repro.results.from_payload`."""

    def to_csv(self, path: Any) -> Any:
        """Write the result as CSV; returns the path written."""
