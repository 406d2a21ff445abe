"""Structured violation records and check reports.

A :class:`Violation` is one rule breach at one location; a
:class:`CheckReport` aggregates a whole verification run.  Violations
are plain data so they serialise cleanly (CLI ``--json``, instrument
events) and so tests can assert on rule ids rather than message text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Generic, Protocol, TypeVar


class Severity(enum.Enum):
    """How bad a violation is.

    ``ERROR`` breaks correctness (shorts, opens, off-track wiring);
    ``WARNING`` flags suspect but not provably broken state;
    ``INFO`` is advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Violation:
    """One rule breach.

    Attributes
    ----------
    rule:
        A rule id from :mod:`repro.check.rules`.
    message:
        Human-readable description with concrete coordinates/names.
    severity:
        See :class:`Severity`; defaults to ``ERROR``.
    nets:
        Names of the nets involved (offender first when meaningful).
    location:
        Geometric ``(x, y)`` anchor of the violation, when one exists.
    layer:
        Metal layer number the violation sits on, when layer-specific.
    """

    rule: str
    message: str
    severity: Severity = Severity.ERROR
    nets: tuple[str, ...] = ()
    location: tuple[int, int] | None = None
    layer: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.nets:
            out["nets"] = list(self.nets)
        if self.location is not None:
            out["location"] = list(self.location)
        if self.layer is not None:
            out["layer"] = self.layer
        return out

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location is not None else ""
        who = f" [{','.join(self.nets)}]" if self.nets else ""
        return f"{self.severity.value.upper()} {self.rule}{where}{who}: {self.message}"


class Finding(Protocol):
    """What a report needs of one record: its rule id and severity."""

    @property
    def rule(self) -> str: ...

    @property
    def severity(self) -> Severity: ...


F = TypeVar("F", bound=Finding)


@dataclass
class Report(Generic[F]):
    """Rule-keyed aggregate of findings, shared by check and lint."""

    violations: list[F] = field(default_factory=list)
    rules_run: tuple[str, ...] = ()

    def extend(self, violations: list[F]) -> None:
        self.violations.extend(violations)

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity finding is present."""
        return self.error_count == 0

    @property
    def error_count(self) -> int:
        return sum(1 for v in self.violations if v.severity is Severity.ERROR)

    def by_rule(self, rule: str) -> list[F]:
        return [v for v in self.violations if v.rule == rule]

    def counts(self) -> dict[str, int]:
        """Violation count per rule id (only rules that fired)."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out

    def _violation_summary(self, label: str) -> str:
        """``label`` + error and per-rule counts, for a non-clean run."""
        parts = ", ".join(
            f"{rule}={n}" for rule, n in sorted(self.counts().items())
        )
        return (
            f"{label}{self.error_count} error(s), "
            f"{len(self.violations)} violation(s): {parts}"
        )

    def summary(self) -> str:
        raise NotImplementedError

    def render(self, limit: int = 50) -> str:
        """Multi-line report: summary plus the first ``limit`` findings."""
        lines = [self.summary()]
        lines.extend(f"  {v}" for v in self.violations[:limit])
        if len(self.violations) > limit:
            lines.append(f"  ... and {len(self.violations) - limit} more")
        return "\n".join(lines)


@dataclass
class CheckReport(Report[Violation]):
    """Aggregate outcome of one verification run."""

    subject: str = ""

    def summary(self) -> str:
        """One-line human-readable verdict."""
        label = f"{self.subject}: " if self.subject else ""
        if not self.violations:
            return f"{label}CLEAN ({len(self.rules_run)} rules checked)"
        return self._violation_summary(label)

    def to_dict(self) -> dict[str, Any]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "violations": [v.to_dict() for v in self.violations],
        }


class CheckFailure(RuntimeError):
    """Raised by checked mode when the sanitizer finds violations.

    Carries the structured records so handlers need not re-parse the
    message.
    """

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = list(violations)
        head = "; ".join(str(v) for v in self.violations[:3])
        more = (
            f" (+{len(self.violations) - 3} more)"
            if len(self.violations) > 3
            else ""
        )
        super().__init__(f"checked mode: {head}{more}")
