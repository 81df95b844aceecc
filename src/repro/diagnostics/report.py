"""Structured diagnostics shared by every noise engine.

A :class:`DiagnosticsReport` is an ordered list of severity-tagged
:class:`Finding` records. Engines build one during preflight validation
and keep appending to it while they run (fallback attempts, clipping,
per-frequency failures), then attach it to ``PsdResult.info["diagnostics"]``
— and to the exception via :meth:`repro.errors.ReproError.attach_diagnostics`
when they fail — so numerical health is inspectable without re-running.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Ordered severity of a finding; comparisons follow numeric order."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self):
        return self.name.lower()


@dataclass
class Finding:
    """One diagnostic observation.

    ``code`` is a stable machine-readable identifier (kebab-case, e.g.
    ``"floquet-margin"``); ``message`` the human-readable explanation;
    ``data`` free-form numeric context (condition numbers, multipliers,
    frequencies) for programmatic inspection.
    """

    code: str
    severity: Severity
    message: str
    data: dict = field(default_factory=dict)

    def __str__(self):
        return f"[{self.severity}] {self.code}: {self.message}"

    def to_dict(self):
        """JSON-friendly form (result payloads, trace exports)."""
        return {"code": self.code, "severity": str(self.severity),
                "message": self.message, "data": dict(self.data)}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        return cls(code=str(data["code"]),
                   severity=Severity[str(data["severity"]).upper()],
                   message=str(data["message"]),
                   data=dict(data.get("data", {})))


@dataclass
class FrequencyFailure:
    """Record of one analysis frequency that produced no PSD value.

    The engines replace the failed sample with NaN and keep sweeping;
    this record (stored in ``PsdResult.info["failures"]`` and mirrored as
    an ERROR finding) says which frequency, at which stage, and why.
    """

    frequency: float
    index: int
    stage: str
    error: str
    message: str

    def __str__(self):
        return (f"f={self.frequency:.6g} Hz [{self.stage}] "
                f"{self.error}: {self.message}")

    def to_dict(self):
        """JSON-friendly form (result payloads, trace exports)."""
        return {"frequency": self.frequency, "index": self.index,
                "stage": self.stage, "error": self.error,
                "message": self.message}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        return cls(frequency=float(data["frequency"]),
                   index=int(data["index"]), stage=str(data["stage"]),
                   error=str(data["error"]),
                   message=str(data["message"]))


class DiagnosticsReport:
    """Ordered, severity-tagged findings from one analysis run."""

    def __init__(self, findings=None, context=""):
        self.findings = list(findings) if findings else []
        #: Free-form label of what was analysed ("mft preflight", ...).
        self.context = context
        #: Span summary of the run that produced this report (a list of
        #: per-stage aggregate rows from :func:`repro.obs.span_summary`)
        #: when an enabled recorder was attached; empty otherwise. Lets
        #: a failure report carry its own timeline.
        self.timeline = []

    # -- building -----------------------------------------------------------

    def add(self, code, severity, message, **data):
        """Append a finding and return it."""
        finding = Finding(code=code, severity=Severity(severity),
                          message=message, data=data)
        self.findings.append(finding)
        return finding

    def info(self, code, message, **data):
        return self.add(code, Severity.INFO, message, **data)

    def warning(self, code, message, **data):
        return self.add(code, Severity.WARNING, message, **data)

    def error(self, code, message, **data):
        return self.add(code, Severity.ERROR, message, **data)

    def merge(self, other):
        """Append every finding of ``other`` (a report or iterable)."""
        self.findings.extend(getattr(other, "findings", other))
        return self

    # -- querying -----------------------------------------------------------

    def __len__(self):
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)

    def __bool__(self):
        # A report is truthy even when empty: "ran, found nothing".
        return True

    def by_code(self, code):
        return [f for f in self.findings if f.code == code]

    def at_least(self, severity):
        severity = Severity(severity)
        return [f for f in self.findings if f.severity >= severity]

    @property
    def worst_severity(self):
        """Highest severity present, or ``None`` for an empty report."""
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)

    @property
    def has_errors(self):
        return any(f.severity >= Severity.ERROR for f in self.findings)

    @property
    def has_warnings(self):
        return any(f.severity >= Severity.WARNING for f in self.findings)

    # -- presentation -------------------------------------------------------

    def to_dict(self):
        """JSON-friendly representation."""
        return {
            "context": self.context,
            "findings": [
                {"code": f.code, "severity": str(f.severity),
                 "message": f.message, "data": dict(f.data)}
                for f in self.findings
            ],
            "timeline": [dict(row) for row in self.timeline],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`."""
        report = cls(
            findings=[Finding.from_dict(f)
                      for f in data.get("findings", [])],
            context=str(data.get("context", "")))
        report.timeline = [dict(row) for row in data.get("timeline", [])]
        return report

    def summary(self):
        counts = {}
        for f in self.findings:
            counts[str(f.severity)] = counts.get(str(f.severity), 0) + 1
        body = ", ".join(f"{n} {sev}" for sev, n in sorted(counts.items()))
        label = self.context or "diagnostics"
        return f"{label}: {body or 'clean'}"

    def __str__(self):
        lines = [self.summary()]
        lines.extend(f"  {f}" for f in self.findings)
        return "\n".join(lines)

    def __repr__(self):
        return (f"DiagnosticsReport({len(self.findings)} findings, "
                f"worst={self.worst_severity})")
