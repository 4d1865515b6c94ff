"""SPICE-like netlist parser.

Supports the subset of SPICE needed to describe the paper's circuits as
plain text (the flow's "netlist generation" step, section 3.1):

* element cards: ``R``, ``C``, ``L``, ``V``, ``I``, ``E`` (VCVS), ``G``
  (VCCS), ``F`` (CCCS), ``H`` (CCVS), ``D`` (diode), ``M`` (MOSFET),
  ``X`` (subcircuit instance);
* ``.model`` cards for MOSFET model parameters (``nmos``/``pmos``);
* ``.subckt`` / ``.ends`` definitions with positional ports, flattened at
  instantiation with dotted name prefixes (``X1.node``); subcircuits may
  instantiate other subcircuits (recursive flattening, guarded by
  :attr:`NetlistParser.MAX_FLATTEN_DEPTH` against self-reference);
* ``.global`` nodes that bypass subcircuit prefixing (supply rails);
* ``.param`` for simple numeric parameters usable in later expressions;
* ``+`` continuation lines, ``*`` and ``;`` comments, engineering-notation
  values (``10u``, ``5meg``), ``key=value`` element parameters;
* sources accept ``DC <v>`` and ``AC <mag> [phase]`` specifications.

The parser produces a flat :class:`~repro.circuit.netlist.Circuit`.
Every element records the 1-based source line of its card
(``element.line_no``) so downstream diagnostics -- notably the
:mod:`repro.lint` topology checker -- can point back into the netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ParseError
from ..units import parse_si
from .elements import (CCCS, CCVS, VCCS, VCVS, Capacitor, CurrentSource,
                       Diode, Inductor, Resistor, VoltageSource)
from .mosfet import Mosfet, MOSModel
from .netlist import Circuit, is_ground

__all__ = ["parse_netlist", "NetlistParser", "SubcircuitDef"]


@dataclass
class SubcircuitDef:
    """A ``.subckt`` definition: ports plus raw element cards."""

    name: str
    ports: tuple[str, ...]
    cards: list[tuple[int, str]] = field(default_factory=list, init=False)
    #: Source line of the ``.subckt`` header (0 when built by hand).
    line_no: int = 0


@dataclass
class _Card:
    """A logical netlist line after continuation joining."""

    line_no: int
    text: str

    @property
    def tokens(self) -> list[str]:
        return self.text.split()


def _join_continuations(text: str) -> list[_Card]:
    """Strip comments, join ``+`` continuation lines into logical cards."""
    cards: list[_Card] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";")[0].rstrip()
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not cards:
                raise ParseError("continuation line with nothing to continue",
                                 line_no, raw)
            cards[-1].text += " " + stripped[1:].strip()
            continue
        cards.append(_Card(line_no, stripped))
    return cards


def _split_params(tokens: list[str]) -> tuple[list[str], dict[str, str]]:
    """Separate positional tokens from ``key=value`` parameters.

    Handles both ``key=value`` and the spaced forms ``key = value`` /
    ``key= value`` that SPICE tolerates.
    """
    joined = " ".join(tokens)
    joined = joined.replace(" =", "=").replace("= ", "=")
    positional: list[str] = []
    params: dict[str, str] = {}
    for token in joined.split():
        if "=" in token:
            key, _, value = token.partition("=")
            if not key or not value:
                raise ParseError(f"malformed parameter {token!r}")
            params[key.lower()] = value
        else:
            positional.append(token)
    return positional, params


class NetlistParser:
    """Stateful SPICE-netlist parser; use :func:`parse_netlist` normally."""

    #: Recursive subcircuit-flattening depth guard: a definition that
    #: (transitively) instantiates itself would otherwise recurse until
    #: the interpreter stack dies.  32 nesting levels is far beyond any
    #: real analogue hierarchy.
    MAX_FLATTEN_DEPTH = 32

    def __init__(self, *, models: dict[str, MOSModel] | None = None) -> None:
        #: MOSFET model cards by lower-case name; pre-seeded models allow a
        #: process card (PDK) to be injected without ``.model`` lines.
        self.models: dict[str, MOSModel] = dict(models or {})
        self.subcircuits: dict[str, SubcircuitDef] = {}
        self.parameters: dict[str, float] = {}
        #: ``.global`` nodes: never prefixed inside subcircuits.
        self.global_nodes: set[str] = set()
        #: Subcircuit names that were actually instantiated (lint:
        #: ``subckt-unused``).
        self.instantiated: set[str] = set()
        self._flatten_depth = 0

    # -- public entry point ---------------------------------------------------
    def parse(self, text: str, title: str = "") -> Circuit:
        """Parse netlist ``text`` into a flat :class:`Circuit`."""
        cards = _join_continuations(text)
        circuit = Circuit(title)
        pending_subckt: SubcircuitDef | None = None

        for card in cards:
            tokens = card.tokens
            head = tokens[0].lower()
            try:
                if head == ".subckt":
                    if pending_subckt is not None:
                        raise ParseError("nested .subckt is not supported",
                                         card.line_no, card.text)
                    if len(tokens) < 3:
                        raise ParseError(".subckt needs a name and >=1 port",
                                         card.line_no, card.text)
                    pending_subckt = SubcircuitDef(
                        name=tokens[1].lower(), ports=tuple(tokens[2:]),
                        line_no=card.line_no)
                elif head == ".ends":
                    if pending_subckt is None:
                        raise ParseError(".ends without .subckt",
                                         card.line_no, card.text)
                    self.subcircuits[pending_subckt.name] = pending_subckt
                    pending_subckt = None
                elif pending_subckt is not None:
                    pending_subckt.cards.append((card.line_no, card.text))
                elif head == ".model":
                    self._parse_model(card)
                elif head == ".param":
                    self._parse_param(card)
                elif head == ".global":
                    self._parse_global(card)
                elif head == ".end":
                    break
                elif head.startswith("."):
                    # Analysis cards (.ac/.dc/.tran/.op) are accepted and
                    # ignored: analyses are invoked through the Python API.
                    continue
                else:
                    self._parse_element(card, circuit, prefix="")
            except ParseError:
                raise
            except Exception as exc:
                raise ParseError(str(exc), card.line_no, card.text) from exc

        if pending_subckt is not None:
            raise ParseError(f".subckt {pending_subckt.name!r} never closed "
                             "with .ends")
        return circuit

    # -- directive cards ---------------------------------------------------------
    def _parse_model(self, card: _Card) -> None:
        tokens = card.tokens
        if len(tokens) < 3:
            raise ParseError(".model needs a name and a type",
                             card.line_no, card.text)
        name = tokens[1].lower()
        mtype = tokens[2].lower().strip("(")
        if mtype not in ("nmos", "pmos"):
            raise ParseError(f"unsupported model type {mtype!r} "
                             "(only nmos/pmos)", card.line_no, card.text)
        body = " ".join(tokens[3:]).strip("()")
        _, params = _split_params(body.split())
        known = {f.name for f in MOSModel.__dataclass_fields__.values()}
        kwargs = {}
        for key, value in params.items():
            field_name = {"lambda": "klambda"}.get(key, key)
            if field_name not in known:
                continue  # unknown BSIM-era parameters are tolerated
            kwargs[field_name] = parse_si(value)
        self.models[name] = MOSModel(
            name=name, polarity="n" if mtype == "nmos" else "p", **kwargs)

    def _parse_param(self, card: _Card) -> None:
        _, params = _split_params(card.tokens[1:])
        for key, value in params.items():
            self.parameters[key] = self._number(value, card)

    def _parse_global(self, card: _Card) -> None:
        if len(card.tokens) < 2:
            raise ParseError(".global needs at least one node name",
                             card.line_no, card.text)
        self.global_nodes.update(card.tokens[1:])

    def _number(self, token: str, card: _Card | None = None) -> float:
        """Resolve a numeric token, allowing ``.param`` references.

        Raises
        ------
        ParseError
            On a malformed number, carrying the card's line number --
            not the bare :class:`ValueError` of :func:`parse_si`, whose
            message cannot say *where* the bad value sits.
        """
        lowered = token.lower()
        if lowered in self.parameters:
            return self.parameters[lowered]
        try:
            return parse_si(token)
        except ValueError:
            raise ParseError(
                f"malformed numeric value {token!r} (engineering notation "
                f"or a .param name expected)",
                card.line_no if card else None,
                card.text if card else None) from None

    # -- element cards ----------------------------------------------------------
    def _parse_element(self, card: _Card, circuit: Circuit, prefix: str) -> None:
        tokens = card.tokens
        name = prefix + tokens[0]
        kind = tokens[0][0].lower()
        handler = {
            "r": self._element_r, "c": self._element_c, "l": self._element_l,
            "v": self._element_v, "i": self._element_i,
            "e": self._element_e, "g": self._element_g,
            "f": self._element_f, "h": self._element_h,
            "d": self._element_d, "m": self._element_m,
            "x": self._element_x,
        }.get(kind)
        if handler is None:
            raise ParseError(f"unknown element type {tokens[0]!r}",
                             card.line_no, card.text)
        element = handler(card, circuit, name, prefix)
        if element is not None:
            element.line_no = card.line_no

    def _map_node(self, node: str, prefix: str,
                  port_map: dict[str, str] | None) -> str:
        """Apply subcircuit port mapping / name prefixing to a node."""
        if is_ground(node) or node in self.global_nodes:
            return node
        if port_map is not None and node in port_map:
            return port_map[node]
        return prefix + node

    def _nodes(self, card: _Card, count: int, prefix: str) -> list[str]:
        tokens = card.tokens
        if len(tokens) < count + 1:
            raise ParseError(f"{tokens[0]!r} needs {count} nodes",
                             card.line_no, card.text)
        port_map = getattr(self, "_active_port_map", None)
        return [self._map_node(n, prefix, port_map) for n in tokens[1:count + 1]]

    def _element_r(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        return circuit.add(
            Resistor(name, *nodes, self._number(card.tokens[3], card)))

    def _element_c(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        return circuit.add(
            Capacitor(name, *nodes, self._number(card.tokens[3], card)))

    def _element_l(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        return circuit.add(
            Inductor(name, *nodes, self._number(card.tokens[3], card)))

    def _source_values(self, tokens: list[str], card: _Card):
        """Parse ``[DC] v [AC mag [phase]]`` source value tokens."""
        dc = 0.0
        ac_mag = 0.0
        ac_phase = 0.0
        i = 0
        seen_plain = False
        while i < len(tokens):
            token = tokens[i].lower()
            if token == "dc":
                if i + 1 >= len(tokens):
                    raise ParseError("DC keyword needs a value",
                                     card.line_no, card.text)
                dc = self._number(tokens[i + 1], card)
                i += 2
            elif token == "ac":
                if i + 1 >= len(tokens):
                    raise ParseError("AC keyword needs a magnitude",
                                     card.line_no, card.text)
                ac_mag = self._number(tokens[i + 1], card)
                i += 2
                if i < len(tokens):
                    try:
                        ac_phase = self._number(tokens[i], card)
                        i += 1
                    except ParseError:
                        pass  # not a phase value; next keyword handles it
            else:
                if seen_plain:
                    raise ParseError(f"unexpected source token {tokens[i]!r}",
                                     card.line_no, card.text)
                dc = self._number(tokens[i], card)
                seen_plain = True
                i += 1
        return dc, ac_mag, ac_phase

    def _element_v(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        dc, ac_mag, ac_phase = self._source_values(card.tokens[3:], card)
        return circuit.add(VoltageSource(name, *nodes, dc,
                                         ac_mag=ac_mag,
                                         ac_phase_deg=ac_phase))

    def _element_i(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        dc, ac_mag, ac_phase = self._source_values(card.tokens[3:], card)
        return circuit.add(CurrentSource(name, *nodes, dc,
                                         ac_mag=ac_mag,
                                         ac_phase_deg=ac_phase))

    def _element_e(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 4, prefix)
        return circuit.add(
            VCVS(name, *nodes, self._number(card.tokens[5], card)))

    def _element_g(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 4, prefix)
        return circuit.add(
            VCCS(name, *nodes, self._number(card.tokens[5], card)))

    def _element_f(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        control = prefix + card.tokens[3]
        return circuit.add(
            CCCS(name, *nodes, control, self._number(card.tokens[4], card)))

    def _element_h(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        control = prefix + card.tokens[3]
        return circuit.add(
            CCVS(name, *nodes, control, self._number(card.tokens[4], card)))

    def _element_d(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 2, prefix)
        _, params = _split_params(card.tokens[3:])
        kwargs = {}
        if "is" in params:
            kwargs["i_s"] = self._number(params["is"], card)
        if "n" in params:
            kwargs["n"] = self._number(params["n"], card)
        if "cj0" in params:
            kwargs["cj0"] = self._number(params["cj0"], card)
        return circuit.add(Diode(name, *nodes, **kwargs))

    def _element_m(self, card, circuit, name, prefix):
        nodes = self._nodes(card, 4, prefix)
        rest = card.tokens[5:]
        if len(card.tokens) < 6:
            raise ParseError("MOSFET needs 4 nodes and a model name",
                             card.line_no, card.text)
        model_name = card.tokens[5].lower()
        if model_name not in self.models:
            raise ParseError(f"undefined MOSFET model {model_name!r}",
                             card.line_no, card.text)
        _, params = _split_params(rest[1:])
        w = self._number(params.get("w", "10u"), card)
        length = self._number(params.get("l", "1u"), card)
        m = self._number(params.get("m", "1"), card)
        return circuit.add(Mosfet(name, *nodes, self.models[model_name],
                                  w, length, m=m))

    def _element_x(self, card, circuit, name, prefix):
        tokens = card.tokens
        if len(tokens) < 3:
            raise ParseError("subcircuit instance needs nodes and a name",
                             card.line_no, card.text)
        subckt_name = tokens[-1].lower()
        if subckt_name not in self.subcircuits:
            raise ParseError(f"undefined subcircuit {subckt_name!r}",
                             card.line_no, card.text)
        definition = self.subcircuits[subckt_name]
        outer_nodes = tokens[1:-1]
        if len(outer_nodes) != len(definition.ports):
            raise ParseError(
                f"subcircuit {subckt_name!r} has {len(definition.ports)} ports, "
                f"got {len(outer_nodes)} connections", card.line_no, card.text)
        port_map = getattr(self, "_active_port_map", None)
        resolved_outer = [self._map_node(n, prefix, port_map)
                          for n in outer_nodes]
        inner_map = dict(zip(definition.ports, resolved_outer, strict=True))
        self.instantiated.add(subckt_name)

        if self._flatten_depth >= self.MAX_FLATTEN_DEPTH:
            raise ParseError(
                f"subcircuit nesting deeper than {self.MAX_FLATTEN_DEPTH} "
                f"while flattening {subckt_name!r} -- recursive "
                f"instantiation?", card.line_no, card.text)
        saved_map = getattr(self, "_active_port_map", None)
        self._active_port_map = inner_map
        self._flatten_depth += 1
        inner_prefix = name + "."
        try:
            for line_no, text in definition.cards:
                self._parse_element(_Card(line_no, text), circuit, inner_prefix)
        finally:
            self._active_port_map = saved_map
            self._flatten_depth -= 1


def parse_netlist(text: str, *, title: str = "",
                  models: dict[str, MOSModel] | None = None) -> Circuit:
    """Parse a SPICE-like netlist into a flat :class:`Circuit`.

    Parameters
    ----------
    text:
        The netlist source.
    models:
        Optional pre-seeded MOSFET model cards (e.g. from a
        :mod:`repro.process` PDK), so netlists need no ``.model`` lines.

    >>> circuit = parse_netlist('''
    ... * voltage divider
    ... V1 in 0 DC 10
    ... R1 in out 1k
    ... R2 out 0 1k
    ... ''')
    >>> len(circuit)
    3
    """
    return NetlistParser(models=models).parse(text, title=title)
