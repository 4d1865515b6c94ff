"""Render a recorded event stream: the ``repro trace`` projection.

The span tree is rebuilt purely from ``span_open``/``span_close``
events (ids and parent links), so it is insensitive to line order --
forked workers append their events whenever they run, and spans that
never closed (a crashed run) still render, marked open.

Per-stage simulation counts are the ``simulations``/``seconds``
attributes :meth:`~repro.telemetry.ledger.SimulationLedger.timed`
stamps onto each ``flow.stage`` span it closes, so the trailing table
(:func:`span_ledger`) is the flow's ledger rebuilt from the spans the
tree shows.
"""

from __future__ import annotations

from .events import load_events
from .ledger import SimulationLedger, StageRecord

__all__ = ["SpanNode", "span_tree", "span_ledger", "render_trace"]


class SpanNode:
    """One span in the reconstructed tree."""

    __slots__ = ("span_id", "name", "parent_id", "attrs", "opened",
                 "elapsed", "status", "children")

    def __init__(self, span_id: str, name: str, parent_id: str | None,
                 attrs: dict, opened: float) -> None:
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.attrs = dict(attrs)
        self.opened = opened
        self.elapsed: float | None = None  # None = never closed
        self.status = "open"
        self.children: list[SpanNode] = []

    @property
    def cumulative(self) -> float:
        return self.elapsed if self.elapsed is not None else 0.0

    @property
    def self_time(self) -> float:
        return max(0.0, self.cumulative
                   - sum(child.cumulative for child in self.children))


def span_tree(events: list[dict]) -> list[SpanNode]:
    """Root spans (open-order) reconstructed from an event list."""
    nodes: dict[str, SpanNode] = {}
    order: list[str] = []
    for event in events:
        kind = event.get("type")
        span_id = event.get("span")
        if not span_id:
            continue
        if kind == "span_open":
            nodes[span_id] = SpanNode(
                span_id, str(event.get("name", "?")), event.get("parent"),
                event.get("attrs") or {}, float(event.get("t", 0.0)))
            order.append(span_id)
        elif kind == "span_close":
            node = nodes.get(span_id)
            if node is None:  # close without open (rotated-away prefix)
                node = nodes[span_id] = SpanNode(
                    span_id, str(event.get("name", "?")),
                    event.get("parent"), event.get("attrs") or {},
                    float(event.get("t", 0.0)))
                order.append(span_id)
            node.elapsed = float(event.get("elapsed", 0.0))
            node.status = str(event.get("status", "ok"))
            node.attrs.update(event.get("attrs") or {})
    roots = []
    for span_id in order:
        node = nodes[span_id]
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def span_ledger(roots: list[SpanNode]) -> SimulationLedger:
    """The simulation ledger rebuilt from its ``flow.stage`` spans.

    Rows keep first-open order and sum every block of a stage, exactly
    as :meth:`~repro.telemetry.ledger.SimulationLedger.timed` adds them.
    """
    ledger = SimulationLedger()

    def walk(node: SpanNode) -> None:
        if node.name == "flow.stage" and "simulations" in node.attrs:
            stage = str(node.attrs.get("stage", "?"))
            ledger.stages.setdefault(stage, StageRecord(stage)).add(
                int(node.attrs["simulations"]),
                float(node.attrs.get("seconds", 0.0)))
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    return ledger


def _label(node: SpanNode) -> str:
    stage = node.attrs.get("stage")
    return f"{node.name}: {stage}" if stage else node.name


def render_trace(path) -> str:
    """The ``repro trace`` text: indented span tree + ledger table."""
    events = load_events(path)
    roots = span_tree(events)
    lines = [f"{'span':<54} {'cum [s]':>10} {'self [s]':>10} {'sims':>12}"]

    def walk(node: SpanNode, depth: int) -> None:
        label = "  " * depth + _label(node)
        if node.status == "open":
            label += " (open)"
        elif node.status == "error":
            label += " (error)"
        sims = node.attrs.get("simulations")
        sims_text = f"{int(sims):>12d}" if sims is not None else " " * 12
        lines.append(f"{label:<54} {node.cumulative:>10.3f} "
                     f"{node.self_time:>10.3f} {sims_text}")
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    ledger = span_ledger(roots)
    if ledger.stages:
        lines += ["", ledger.table()]
    if not roots:
        lines.append("(no spans recorded)")
    return "\n".join(lines)
