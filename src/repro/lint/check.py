"""Lint entry points: circuits, netlist text, files, and flow gating.

Three front doors, one report type:

* :func:`lint_circuit` -- lint an in-memory :class:`Circuit` (used by
  the flow pre-flight stage on the built testbenches);
* :func:`lint_netlist` / :func:`lint_file` -- parse SPICE text and lint
  the result; parse failures become ``parse-error`` findings instead of
  exceptions, so ingestion always yields a readable report;
* :func:`preflight_lint` -- the flow gate: run the rules and, in
  ``strict`` mode, raise :class:`~repro.errors.LintGateError` carrying
  the report when any error-severity finding exists.  This is what
  turns a would-be ``numpy.linalg`` singular-matrix traceback into an
  actionable report *before* any simulation budget is spent.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..circuit.netlist import Circuit
from ..errors import LintError, LintGateError, ParseError
from .graph import CircuitGraph
from .report import Finding, LintReport
from .rules import LintContext, run_rules

__all__ = ["LINT_MODES", "lint_circuit", "lint_netlist", "lint_file",
           "preflight_lint"]

#: Flow gating modes: ``strict`` fails on errors, ``warn`` only
#: reports, ``off`` skips the stage.
LINT_MODES: tuple[str, ...] = ("strict", "warn", "off")


def lint_circuit(circuit: Circuit, *, parser=None,
                 only: Iterable[str] | None = None,
                 source: str = "") -> LintReport:
    """Run the (selected) lint rules over ``circuit``.

    Parameters
    ----------
    parser:
        The :class:`~repro.circuit.parser.NetlistParser` that produced
        the circuit, enabling the netlist-level rules (unused
        subcircuit ports/definitions).
    only:
        Optional restriction to a subset of rule ids.
    """
    report = LintReport(source=source or circuit.title or "circuit")
    ctx = LintContext(circuit=circuit, graph=CircuitGraph(circuit),
                      parser=parser)
    report.extend(run_rules(ctx, only))
    return report


def lint_netlist(text: str, *, title: str = "", models=None,
                 only: Iterable[str] | None = None,
                 source: str = "") -> LintReport:
    """Parse SPICE netlist ``text`` and lint the resulting circuit.

    A netlist that fails to parse produces a report with a single
    ``parse-error`` finding (severity error, carrying the source line)
    rather than raising, so ingestion pipelines always get a report.
    """
    # Local import: repro.circuit.parser must stay importable without
    # the lint package (layering: circuit < lint).
    from ..circuit.parser import NetlistParser
    parser = NetlistParser(models=models)
    try:
        circuit = parser.parse(text, title=title)
    except ParseError as error:
        report = LintReport(source=source or title or "netlist")
        report.add(Finding(
            "parse-error", "error", str(error), line_no=error.line_no,
            hint="the netlist must parse before topology can be checked"))
        return report
    return lint_circuit(circuit, parser=parser, only=only,
                        source=source or title or circuit.title)


def lint_file(path, *, models=None) -> LintReport:
    """Lint a netlist file with every rule; see :func:`lint_netlist`."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return lint_netlist(text, title=str(path), models=models,
                        source=str(path))


def preflight_lint(circuit: Circuit, mode: str = "strict", *,
                   stage: str = "pre-flight lint",
                   progress=None) -> LintReport | None:
    """Gate a flow entry point on the lint rules.

    Parameters
    ----------
    mode:
        ``"strict"`` raises :class:`~repro.errors.LintGateError` when
        any error-severity finding exists; ``"warn"`` only reports;
        ``"off"`` skips linting entirely and returns ``None``.
    progress:
        Optional ``callable(str)`` receiving one line per finding plus
        the summary (the flow's ``say``).

    Raises
    ------
    LintError
        On an unknown ``mode``.
    LintGateError
        In strict mode, when the circuit has error-severity findings;
        the exception carries the full report as ``.report``.
    """
    if mode not in LINT_MODES:
        raise LintError(f"unknown lint mode {mode!r} "
                        f"(expected one of {LINT_MODES})")
    if mode == "off":
        return None
    report = lint_circuit(circuit, source=stage)
    if progress is not None:
        for finding in report.sorted_findings():
            progress(f"  {finding.render().splitlines()[0]}")
        progress(f"  {report.summary()}")
    if mode == "strict" and report.has_errors:
        raise LintGateError(report, stage=stage)
    return report
