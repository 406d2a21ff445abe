"""Structured lint findings and reports.

A :class:`LintViolation` is one contract breach at one source location;
a :class:`LintReport` aggregates a whole analysis run.  Both share
:class:`repro.check.violations.Report` with the runtime verification
engine, so the two subsystems aggregate and render the same way: plain
data, rule-id keyed, ``--json``-friendly.

Lint reuses the checker's :class:`~repro.check.violations.Severity`
scale.  ``ERROR`` marks a broken project contract (the build should
fail); ``WARNING`` marks heuristic findings that need a human read
(``repro lint --strict`` gates on those too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.check.violations import Report, Severity

__all__ = ["LintReport", "LintViolation", "Severity"]


@dataclass(frozen=True)
class LintViolation:
    """One contract breach at one source location.

    Attributes
    ----------
    rule:
        A rule id from :mod:`repro.lint.rules` (``det.clock``,
        ``txn.commit``, ...; catalogued in docs/STATIC_ANALYSIS.md).
    path:
        Repo-relative posix path of the offending file.
    line / col:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description naming the contract and the fix.
    severity:
        See :class:`~repro.check.violations.Severity`.
    snippet:
        The stripped source line — the stable part of the baseline
        key, so grandfathered findings survive unrelated line drift.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR
    snippet: str = ""

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: location-stable (no line numbers)."""
        return (self.path, self.rule, self.snippet)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def __str__(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value.upper()} {self.rule}: {self.message}"
        )


@dataclass
class LintReport(Report[LintViolation]):
    """Aggregate outcome of one static-analysis run."""

    files_scanned: int = 0
    #: Findings silenced by an in-source suppression pragma.
    suppressed: int = 0
    #: Findings silenced by the committed baseline file.
    baselined: int = 0

    def summary(self) -> str:
        """One-line human-readable verdict."""
        filtered = ""
        if self.suppressed or self.baselined:
            filtered = (
                f" ({self.suppressed} pragma-suppressed, "
                f"{self.baselined} baselined)"
            )
        if not self.violations:
            return (
                f"lint: CLEAN — {self.files_scanned} file(s), "
                f"{len(self.rules_run)} rule(s){filtered}"
            )
        return self._violation_summary("lint: ") + filtered

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": "repro-lint-report",
            "ok": self.ok,
            "files_scanned": self.files_scanned,
            "rules_run": list(self.rules_run),
            "counts": self.counts(),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
            "violations": [v.to_dict() for v in self.violations],
        }
