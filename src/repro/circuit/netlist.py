"""Circuit netlist representation.

A :class:`Circuit` is an ordered collection of uniquely named elements
connected by string-named nodes.  It is the common input to every analysis
in :mod:`repro.analysis` and is produced either programmatically (see
:mod:`repro.designs`) or by the SPICE-like parser in
:mod:`repro.circuit.parser`.

Design notes
------------
* Ground is any node named ``"0"`` or ``"gnd"`` (case-insensitive) and is
  excluded from the unknown vector.
* Before simulation a circuit must be *compiled* (:meth:`Circuit.compile`),
  which assigns every non-ground node a matrix row and every element that
  needs auxiliary unknowns (voltage sources, inductors, controlled sources
  with branch currents) a block of auxiliary rows.  Compilation is cheap
  and is redone automatically whenever the circuit changed.
* Element parameters may be scalars **or** 1-D ``numpy`` arrays of a common
  batch length ``B``.  A batched circuit describes ``B`` simultaneous
  circuit variants (e.g. one per Monte-Carlo sample or per GA individual)
  that the analyses solve in one stacked matrix operation.  This is the
  mechanism that makes the paper's 10,000-candidate optimisation and the
  1022x200 Monte-Carlo runs tractable in pure Python.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..errors import NetlistError

__all__ = ["GROUND_NAMES", "is_ground", "Element", "Circuit", "CompiledTopology"]

#: Node names treated as the reference (ground) node.
GROUND_NAMES = frozenset({"0", "gnd"})


def is_ground(node: str) -> bool:
    """Return ``True`` when ``node`` names the reference node."""
    return node.lower() in GROUND_NAMES


class Element:
    """Base class for every circuit element.

    Subclasses declare their connectivity through ``nodes`` (a tuple of node
    names, order significant) and implement the stamping protocol used by
    the analyses:

    ``aux_count()``
        Number of auxiliary (branch-current) unknowns the element needs.
    ``stamp(ctx)``
        Stamp the *linear, bias-independent* part of the element into the
        MNA system: conductances into ``ctx.add_g``, capacitances into
        ``ctx.add_c``, DC source terms into ``ctx.add_rhs``.
    ``bank``
        Nonlinear elements only: the class that compiles all devices of
        the type into one bank, evaluated over every device and lane at
        once (see :class:`~repro.circuit.mosfet.MosfetBank`).  The
        analyses stamp the banks' Newton and small-signal values.
    ``ac_rhs(ctx)``
        Independent sources only: stamp the complex AC excitation.

    The base class provides no-op defaults so linear elements only override
    :meth:`stamp` and sources additionally :meth:`ac_rhs`.
    """

    #: Set by nonlinear subclasses to their device-bank class.
    bank = None

    #: 1-based source line of the card that produced this element, when
    #: it came from a parsed netlist (set by the parser; ``None`` for
    #: programmatically built circuits).  Lint findings use it to point
    #: back into the netlist text.
    line_no: int | None = None

    def __init__(self, name: str, nodes: Iterable[str]) -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.nodes = tuple(str(n) for n in nodes)
        if not self.nodes:
            raise NetlistError(f"element {name!r} has no nodes")
        # Filled in by Circuit.compile():
        self._node_idx: tuple[int, ...] = ()
        self._aux_idx: tuple[int, ...] = ()

    # -- stamping protocol -------------------------------------------------
    def aux_count(self) -> int:
        """Number of auxiliary MNA unknowns required by this element."""
        return 0

    def stamp(self, ctx) -> None:
        """Stamp the linear part of the element (default: nothing)."""

    def ac_rhs(self, ctx) -> None:
        """Stamp the complex AC excitation (independent sources only)."""

    # -- bookkeeping --------------------------------------------------------
    def batch_size(self) -> int:
        """Largest batch length among this element's parameters (1 = scalar)."""
        return 1

    def op_info(self, op: np.ndarray) -> dict[str, np.ndarray]:
        """Operating-point report for this element (empty by default)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nodes = " ".join(self.nodes)
        return f"<{type(self).__name__} {self.name} ({nodes})>"


def _param_batch(*values) -> int:
    """Return the common batch length of scalar-or-1D parameter values."""
    batch = 1
    for value in values:
        arr = np.asarray(value)
        if arr.ndim == 0:
            continue
        if arr.ndim != 1:
            raise NetlistError(
                f"element parameters must be scalars or 1-D arrays, got shape {arr.shape}")
        if batch == 1:
            batch = arr.shape[0]
        elif arr.shape[0] not in (1, batch):
            raise NetlistError(
                f"inconsistent parameter batch sizes: {arr.shape[0]} vs {batch}")
        batch = max(batch, arr.shape[0])
    return batch


def _column(values) -> np.ndarray:
    """One value per device as a ``(D, 1)`` column (device banks)."""
    return np.array(values, dtype=float)[:, None]


class CompiledTopology:
    """Node/auxiliary index assignment for a circuit.

    Attributes
    ----------
    node_index:
        Mapping node name -> matrix row.  Ground maps to ``-1``.
    n_nodes:
        Number of non-ground nodes.
    n_unknowns:
        ``n_nodes`` plus the total auxiliary unknown count.
    batch:
        Batch length ``B`` of the circuit (1 for a plain scalar circuit).
    """

    def __init__(self, circuit: "Circuit") -> None:
        names: list[str] = []
        seen: set[str] = set()
        ground_seen = False
        for element in circuit:
            for node in element.nodes:
                if is_ground(node):
                    ground_seen = True
                    continue
                if node not in seen:
                    seen.add(node)
                    names.append(node)
        if not ground_seen:
            raise NetlistError(
                f"circuit {circuit.title!r} has no ground node "
                f"(name one node '0' or 'gnd')")
        self.node_names: tuple[str, ...] = tuple(names)
        self.node_index: dict[str, int] = {n: i for i, n in enumerate(names)}
        for g in GROUND_NAMES:
            self.node_index[g] = -1
        self.n_nodes = len(names)

        aux = self.n_nodes
        batch = 1
        for element in circuit:
            element._node_idx = tuple(
                -1 if is_ground(n) else self.node_index[n] for n in element.nodes)
            count = element.aux_count()
            element._aux_idx = tuple(range(aux, aux + count))
            aux += count
            element_batch = element.batch_size()
            if element_batch != 1 and batch != 1 and element_batch != batch:
                raise NetlistError(
                    f"element {element.name!r} has batch length "
                    f"{element_batch} but the circuit already has {batch}")
            batch = max(batch, element_batch)
        self.n_unknowns = aux
        self.batch = batch

    def index_of(self, node: str) -> int:
        """Matrix row of ``node`` (``-1`` for ground).

        Raises
        ------
        NetlistError
            If the node does not exist in the circuit.
        """
        key = node.lower() if is_ground(node) else node
        if key not in self.node_index:
            raise NetlistError(f"unknown node {node!r}")
        return self.node_index[key]


class Circuit:
    """An ordered, uniquely named collection of circuit elements."""

    def __init__(self, title: str = "") -> None:
        self.title = title
        self._elements: dict[str, Element] = {}
        self._topology: CompiledTopology | None = None

    # -- construction -------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add ``element``; returns it for chaining.

        Raises
        ------
        NetlistError
            If an element with the same name already exists.
        """
        if element.name in self._elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        self._topology = None
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        """Add several elements."""
        for element in elements:
            self.add(element)

    def remove(self, name: str) -> Element:
        """Remove and return the element called ``name``."""
        try:
            element = self._elements.pop(name)
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None
        self._topology = None
        return element

    def element(self, name: str) -> Element:
        """Look up an element by name."""
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    # -- compilation ----------------------------------------------------------
    def compile(self) -> CompiledTopology:
        """Assign matrix rows to nodes and auxiliary unknowns.

        The result is cached until the circuit is modified.
        """
        if self._topology is None:
            if not self._elements:
                raise NetlistError(f"circuit {self.title!r} is empty")
            self._topology = CompiledTopology(self)
        return self._topology

    @property
    def nodes(self) -> tuple[str, ...]:
        """Non-ground node names in first-use order."""
        return self.compile().node_names

    @property
    def batch(self) -> int:
        """Batch length of the circuit (see module docstring)."""
        return self.compile().batch

    def nonlinear_elements(self) -> list[Element]:
        """All elements that participate in Newton iteration."""
        return [e for e in self if e.bank is not None]

    def invalidate(self) -> None:
        """Force recompilation (call after mutating element parameters
        in a way that changes the batch size)."""
        self._topology = None

    def summary(self) -> str:
        """One-line-per-element human readable description."""
        lines = [f"* circuit: {self.title or '(untitled)'}"]
        for element in self:
            lines.append(repr(element))
        return "\n".join(lines)
