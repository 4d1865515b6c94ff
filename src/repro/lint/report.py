"""Structured lint findings and the report they aggregate into.

A :class:`Finding` is one diagnostic produced by a lint rule: the rule
id, a severity, the node/element locus, a human-readable message and a
fix hint.  A :class:`LintReport` collects the findings of one lint run
and renders them as text (for the CLI and flow logs) or JSON (for the
future service layer), and maps onto the process exit-code convention
used by ``repro lint``:

* no findings at all, or info only -- clean, exit 0;
* warnings -- exit 0 normally, nonzero under ``--strict``;
* errors -- always nonzero (the netlist would produce a singular MNA
  system or a meaningless simulation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["SEVERITIES", "Finding", "LintReport"]

#: Recognised severities, most severe first.
SEVERITIES: tuple[str, ...] = ("error", "warning", "info")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint rule.

    Attributes
    ----------
    rule:
        Rule identifier (e.g. ``"no-dc-path"``); see ``docs/lint.md``
        for the catalogue.
    severity:
        ``"error"`` (guaranteed-broken simulation), ``"warning"``
        (suspicious but simulable) or ``"info"`` (cosmetic).
    message:
        Human-readable, single-sentence description of the problem.
    nodes, elements:
        The locus: the node and element names the finding is about.
    line_no:
        1-based source line of the first implicated element, when the
        circuit came from a parsed netlist.
    hint:
        A short "how to fix it" suggestion.
    """

    rule: str
    severity: str
    message: str
    nodes: tuple[str, ...] = ()
    elements: tuple[str, ...] = ()
    line_no: int | None = None
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r} "
                             f"(expected one of {SEVERITIES})")

    def render(self) -> str:
        """One-line text rendering of the finding."""
        locus = ""
        if self.line_no is not None:
            locus = f" (line {self.line_no})"
        parts = [f"{self.severity}[{self.rule}]{locus}: {self.message}"]
        if self.hint:
            parts.append(f"    hint: {self.hint}")
        return "\n".join(parts)

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "nodes": list(self.nodes),
            "elements": list(self.elements),
            "line": self.line_no,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """All findings of one lint run over one circuit/netlist."""

    source: str = ""
    findings: list[Finding] = field(default_factory=list, init=False)

    def add(self, finding: Finding) -> None:
        """Append a finding."""
        self.findings.append(finding)

    def extend(self, findings) -> None:
        """Append several findings."""
        self.findings.extend(findings)

    def sorted_findings(self) -> list[Finding]:
        """Findings ordered most-severe first, then by source line."""
        return sorted(
            self.findings,
            key=lambda f: (_SEVERITY_RANK[f.severity],
                           f.line_no if f.line_no is not None else 1 << 30,
                           f.rule))

    # -- severity summary ---------------------------------------------------
    def count(self, severity: str) -> int:
        """Number of findings at ``severity``."""
        return sum(1 for f in self.findings if f.severity == severity)

    @property
    def has_errors(self) -> bool:
        return any(f.severity == "error" for f in self.findings)

    @property
    def has_warnings(self) -> bool:
        return any(f.severity == "warning" for f in self.findings)

    def ok(self, *, strict: bool = False) -> bool:
        """``True`` when the circuit passed: no errors, and no warnings
        either when ``strict``."""
        if self.has_errors:
            return False
        return not (strict and self.has_warnings)

    def exit_code(self, *, strict: bool = False) -> int:
        """Process exit code: 0 clean (warnings tolerated unless
        ``strict``), 1 otherwise."""
        return 0 if self.ok(strict=strict) else 1

    def summary(self) -> str:
        """One-line pass/fail summary."""
        label = self.source or "circuit"
        if not self.findings:
            return f"{label}: clean (no findings)"
        counts = ", ".join(
            f"{self.count(s)} {s}{'s' if self.count(s) != 1 else ''}"
            for s in SEVERITIES if self.count(s))
        return f"{label}: {counts}"

    # -- renderers ----------------------------------------------------------
    def render_text(self) -> str:
        """Multi-line human-readable report (findings + summary)."""
        lines = [f.render() for f in self.sorted_findings()]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole report."""
        return {
            "source": self.source,
            "ok": self.ok(),
            "counts": {s: self.count(s) for s in SEVERITIES},
            "findings": [f.to_dict() for f in self.sorted_findings()],
        }

    def render_json(self) -> str:
        """JSON rendering of the report (two-space indent)."""
        return json.dumps(self.to_dict(), indent=2)

    def __str__(self) -> str:
        return self.render_text()
