"""Linear and independent-source circuit elements.

Stamp conventions (standard MNA):

* A conductance ``g`` between nodes ``a`` and ``b`` stamps ``+g`` on the
  diagonal entries ``(a, a)``/``(b, b)`` and ``-g`` on ``(a, b)``/``(b, a)``.
* Elements with branch-current unknowns (voltage sources, inductors, VCVS,
  CCVS) receive auxiliary rows from :meth:`Circuit.compile`.
* Independent sources are the only elements that stamp the right-hand
  side, so the DC solver performs source stepping by scaling it.

All element values accept scalars or 1-D batch arrays (see
:mod:`repro.circuit.netlist`), and SPICE-style engineering strings such as
``"10u"`` (via :func:`repro.units.parse_si`).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NetlistError
from ..units import parse_si
from .netlist import Element, _column, _param_batch

__all__ = [
    "Resistor", "Capacitor", "Inductor",
    "VoltageSource", "CurrentSource",
    "VCVS", "VCCS", "CCCS", "CCVS",
    "Diode",
]


def _value(x):
    """Normalise an element value: parse engineering strings, keep arrays."""
    if isinstance(x, str):
        return parse_si(x)
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


# ---------------------------------------------------------------------------
# passive two-terminal elements
# ---------------------------------------------------------------------------

class Resistor(Element):
    """Ideal resistor between two nodes."""

    def __init__(self, name: str, a: str, b: str, resistance) -> None:
        super().__init__(name, (a, b))
        self.resistance = _value(resistance)
        if np.any(np.asarray(self.resistance) <= 0):
            raise NetlistError(f"resistor {name!r} must have positive resistance")

    def batch_size(self) -> int:
        return _param_batch(self.resistance)

    def stamp(self, ctx) -> None:
        a, b = self._node_idx
        g = 1.0 / np.asarray(self.resistance, dtype=float)
        ctx.add_g(a, a, g)
        ctx.add_g(b, b, g)
        ctx.add_g(a, b, -g)
        ctx.add_g(b, a, -g)


class Capacitor(Element):
    """Ideal capacitor between two nodes (open in DC)."""

    def __init__(self, name: str, a: str, b: str, capacitance) -> None:
        super().__init__(name, (a, b))
        self.capacitance = _value(capacitance)
        if np.any(np.asarray(self.capacitance) < 0):
            raise NetlistError(f"capacitor {name!r} must be non-negative")

    def batch_size(self) -> int:
        return _param_batch(self.capacitance)

    def stamp(self, ctx) -> None:
        a, b = self._node_idx
        c = np.asarray(self.capacitance, dtype=float)
        ctx.add_c(a, a, c)
        ctx.add_c(b, b, c)
        ctx.add_c(a, b, -c)
        ctx.add_c(b, a, -c)


class Inductor(Element):
    """Ideal inductor; carries a branch-current auxiliary unknown.

    The branch equation ``V(a) - V(b) - L di/dt = 0`` stamps ``-L`` into the
    dynamic (C) matrix at the auxiliary diagonal, which makes the inductor a
    short in DC and ``j*omega*L`` in AC without special-casing.
    """

    def __init__(self, name: str, a: str, b: str, inductance) -> None:
        super().__init__(name, (a, b))
        self.inductance = _value(inductance)
        if np.any(np.asarray(self.inductance) <= 0):
            raise NetlistError(f"inductor {name!r} must have positive inductance")

    def aux_count(self) -> int:
        return 1

    def batch_size(self) -> int:
        return _param_batch(self.inductance)

    def stamp(self, ctx) -> None:
        a, b = self._node_idx
        (k,) = self._aux_idx
        ctx.add_g(a, k, 1.0)
        ctx.add_g(b, k, -1.0)
        ctx.add_g(k, a, 1.0)
        ctx.add_g(k, b, -1.0)
        ctx.add_c(k, k, -np.asarray(self.inductance, dtype=float))


# ---------------------------------------------------------------------------
# independent sources
# ---------------------------------------------------------------------------

class VoltageSource(Element):
    """Independent voltage source with DC and AC values.

    Parameters
    ----------
    dc:
        DC value (volts).
    ac_mag, ac_phase_deg:
        Small-signal excitation magnitude and phase for AC analysis.
    """

    def __init__(self, name: str, plus: str, minus: str, dc=0.0, *,
                 ac_mag: float = 0.0, ac_phase_deg: float = 0.0) -> None:
        super().__init__(name, (plus, minus))
        self.dc = _value(dc)
        self.ac_mag = float(ac_mag)
        self.ac_phase_deg = float(ac_phase_deg)

    def aux_count(self) -> int:
        return 1

    def batch_size(self) -> int:
        return _param_batch(self.dc)

    @property
    def branch_index(self) -> int:
        """Matrix row of this source's branch current (after compile)."""
        return self._aux_idx[0]

    def stamp(self, ctx) -> None:
        a, b = self._node_idx
        (k,) = self._aux_idx
        ctx.add_g(a, k, 1.0)
        ctx.add_g(b, k, -1.0)
        ctx.add_g(k, a, 1.0)
        ctx.add_g(k, b, -1.0)
        ctx.add_rhs(k, np.asarray(self.dc, dtype=float))

    def ac_rhs(self, ctx) -> None:
        if self.ac_mag == 0.0:
            return
        (k,) = self._aux_idx
        phase = math.radians(self.ac_phase_deg)
        ctx.add_rhs(k, self.ac_mag * complex(math.cos(phase), math.sin(phase)))


class CurrentSource(Element):
    """Independent current source; positive current flows ``plus -> minus``
    through the source (SPICE convention)."""

    def __init__(self, name: str, plus: str, minus: str, dc=0.0, *,
                 ac_mag: float = 0.0, ac_phase_deg: float = 0.0) -> None:
        super().__init__(name, (plus, minus))
        self.dc = _value(dc)
        self.ac_mag = float(ac_mag)
        self.ac_phase_deg = float(ac_phase_deg)

    def batch_size(self) -> int:
        return _param_batch(self.dc)

    def stamp(self, ctx) -> None:
        a, b = self._node_idx
        dc = np.asarray(self.dc, dtype=float)
        ctx.add_rhs(a, -dc)
        ctx.add_rhs(b, dc)

    def ac_rhs(self, ctx) -> None:
        if self.ac_mag == 0.0:
            return
        a, b = self._node_idx
        phase = math.radians(self.ac_phase_deg)
        excitation = self.ac_mag * complex(math.cos(phase), math.sin(phase))
        ctx.add_rhs(a, -excitation)
        ctx.add_rhs(b, excitation)


# ---------------------------------------------------------------------------
# controlled sources
# ---------------------------------------------------------------------------

class VCCS(Element):
    """Voltage-controlled current source (SPICE ``G`` element).

    Current ``gm * (V(cplus) - V(cminus))`` flows from ``plus`` through the
    source to ``minus``.
    """

    def __init__(self, name: str, plus: str, minus: str,
                 cplus: str, cminus: str, gm) -> None:
        super().__init__(name, (plus, minus, cplus, cminus))
        self.gm = _value(gm)

    def batch_size(self) -> int:
        return _param_batch(self.gm)

    def stamp(self, ctx) -> None:
        a, b, cp, cm = self._node_idx
        gm = np.asarray(self.gm, dtype=float)
        ctx.add_g(a, cp, gm)
        ctx.add_g(a, cm, -gm)
        ctx.add_g(b, cp, -gm)
        ctx.add_g(b, cm, gm)


class VCVS(Element):
    """Voltage-controlled voltage source (SPICE ``E`` element)."""

    def __init__(self, name: str, plus: str, minus: str,
                 cplus: str, cminus: str, gain) -> None:
        super().__init__(name, (plus, minus, cplus, cminus))
        self.gain = _value(gain)

    def aux_count(self) -> int:
        return 1

    def batch_size(self) -> int:
        return _param_batch(self.gain)

    def stamp(self, ctx) -> None:
        a, b, cp, cm = self._node_idx
        (k,) = self._aux_idx
        gain = np.asarray(self.gain, dtype=float)
        ctx.add_g(a, k, 1.0)
        ctx.add_g(b, k, -1.0)
        ctx.add_g(k, a, 1.0)
        ctx.add_g(k, b, -1.0)
        ctx.add_g(k, cp, -gain)
        ctx.add_g(k, cm, gain)


class CCCS(Element):
    """Current-controlled current source (SPICE ``F`` element).

    The controlling current is the branch current of the named
    :class:`VoltageSource` (SPICE convention).
    """

    def __init__(self, name: str, plus: str, minus: str,
                 control_source: str, gain) -> None:
        super().__init__(name, (plus, minus))
        self.control_source = control_source
        self.gain = _value(gain)
        self._control_branch: int | None = None

    def batch_size(self) -> int:
        return _param_batch(self.gain)

    def bind_control(self, branch_index: int) -> None:
        """Called by the analyses to resolve the controlling branch row."""
        self._control_branch = branch_index

    def stamp(self, ctx) -> None:
        if self._control_branch is None:
            raise NetlistError(
                f"CCCS {self.name!r}: control source {self.control_source!r} unresolved")
        a, b = self._node_idx
        gain = np.asarray(self.gain, dtype=float)
        ctx.add_g(a, self._control_branch, gain)
        ctx.add_g(b, self._control_branch, -gain)


class CCVS(Element):
    """Current-controlled voltage source (SPICE ``H`` element)."""

    def __init__(self, name: str, plus: str, minus: str,
                 control_source: str, transresistance) -> None:
        super().__init__(name, (plus, minus))
        self.control_source = control_source
        self.transresistance = _value(transresistance)
        self._control_branch: int | None = None

    def aux_count(self) -> int:
        return 1

    def batch_size(self) -> int:
        return _param_batch(self.transresistance)

    def bind_control(self, branch_index: int) -> None:
        """Called by the analyses to resolve the controlling branch row."""
        self._control_branch = branch_index

    def stamp(self, ctx) -> None:
        if self._control_branch is None:
            raise NetlistError(
                f"CCVS {self.name!r}: control source {self.control_source!r} unresolved")
        a, b = self._node_idx
        (k,) = self._aux_idx
        r = np.asarray(self.transresistance, dtype=float)
        ctx.add_g(a, k, 1.0)
        ctx.add_g(b, k, -1.0)
        ctx.add_g(k, a, 1.0)
        ctx.add_g(k, b, -1.0)
        ctx.add_g(k, self._control_branch, -r)


# ---------------------------------------------------------------------------
# diode (simplest nonlinear device; exercises the Newton machinery)
# ---------------------------------------------------------------------------

#: Diode exponent clamp: beyond it the exponential is linearised.
_EXP_CLAMP = 40.0

#: Diode thermal voltage ``kT/q`` at 300 K [V].
DIODE_VT = 0.025852


class DiodeBank:
    """``D`` diodes compiled for evaluation over many lanes at once.

    The diode counterpart of :class:`~repro.circuit.mosfet.MosfetBank`
    (see there for ``STAMPS`` and the calling convention); diode
    parameters are scalars, so the bank holds ``(D, 1)`` columns only.
    """

    #: Newton value rows: g, i_eq.  AC: g, cj0.
    STAMPS = {
        "newton": (("G", 0, 0, 0, 1), ("G", 1, 1, 0, 1), ("G", 0, 1, 0, -1),
                   ("G", 1, 0, 0, -1), ("rhs", 0, 0, 1, -1),
                   ("rhs", 1, 1, 1, 1)),
    }
    STAMPS["ac"] = STAMPS["newton"][:4] + (
        ("C", 0, 0, 1, 1), ("C", 1, 1, 1, 1), ("C", 0, 1, 1, -1),
        ("C", 1, 0, 1, -1))
    ROWS = {"newton": 2, "ac": 2}

    def __init__(self, devices, batch: int) -> None:
        self.size = len(devices)
        #: ``(2, D)`` node rows; ground (-1) indexes the appended zero row.
        self.nodes = np.array([device._node_idx for device in devices]).T
        nvt = [device.n * DIODE_VT for device in devices]
        self.i_s = _column([device.i_s for device in devices])
        self.nvt = _column(nvt)
        self.v_clamp = _column([_EXP_CLAMP * v for v in nvt])
        self.i_clamp = _column([device.i_s * (math.exp(_EXP_CLAMP) - 1.0)
                                for device in devices])
        self.g_clamp = _column([device.i_s * math.exp(_EXP_CLAMP) / v
                                for device, v in zip(devices, nvt)])
        self.cj0 = _column([device.cj0 for device in devices])

    def stamps(self, mode: str, device: int):
        """Stamps of ``device`` in ``mode``; no C stamps without ``cj0``."""
        stamps = self.STAMPS[mode]
        if mode == "ac" and not self.cj0[device, 0]:
            stamps = stamps[:4]
        return stamps

    def current(self, vd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Diode current and conductance with exponent clamping."""
        x = vd / self.nvt
        exp = np.exp(np.minimum(x, _EXP_CLAMP))
        current = self.i_s * (exp - 1.0)
        conductance = self.i_s * exp / self.nvt
        # Beyond the clamp, continue linearly to keep the model monotone.
        over = x > _EXP_CLAMP
        if np.any(over):
            current = np.where(
                over, self.i_clamp + self.g_clamp * (vd - self.v_clamp),
                current)
            conductance = np.where(over, self.g_clamp, conductance)
        return current, conductance + 1e-12  # tiny leakage keeps matrix regular

    def values(self, mode: str, xT: np.ndarray, lanes, out: np.ndarray
               ) -> None:
        """Fill ``out`` (``(ROWS[mode], D, b)``) at the voltages ``xT``."""
        va, vb = xT[self.nodes]
        vd = va - vb
        current, conductance = self.current(vd)
        out[0] = conductance
        out[1] = current - conductance * vd if mode == "newton" else self.cj0


class Diode(Element):
    """Junction diode ``anode -> cathode`` with exponential I-V law.

    ``id = IS * (exp(vd / (n*vt)) - 1)``, with the exponent clamped for
    numerical safety.  Junction capacitance ``cj0`` is stamped (bias
    independent) for AC analysis.
    """

    bank = DiodeBank

    def __init__(self, name: str, anode: str, cathode: str, *,
                 i_s: float = 1e-14, n: float = 1.0,
                 cj0: float = 0.0) -> None:
        super().__init__(name, (anode, cathode))
        self.i_s = float(i_s)
        self.n = float(n)
        self.cj0 = float(cj0)

    def op_info(self, op: np.ndarray) -> dict[str, np.ndarray]:
        a, b = self._node_idx
        va = op[..., a] if a >= 0 else 0.0
        vb = op[..., b] if b >= 0 else 0.0
        vd = np.asarray(va) - np.asarray(vb)
        current, conductance = (
            value[0].reshape(vd.shape)
            for value in DiodeBank([self], 1).current(vd[None]))
        return {"vd": vd, "id": current, "gd": conductance}
