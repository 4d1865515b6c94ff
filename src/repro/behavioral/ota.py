"""Behavioural OTA macromodel.

This is the Python twin of the paper's Verilog-A module::

    gain_in_v = pow(10, gain_prop/20);
    V(out) <+ V(inp)*(-gain_in_v) - I(out)*ro;

i.e. a differential voltage amplifier with open-circuit gain ``gain`` and
output resistance ``ro`` (Thevenin form).  Driving a load capacitance
produces the OTA's dominant pole at ``1/(2*pi*ro*CL)`` and a unity-gain
frequency of ``gain/(2*pi*ro*CL) = gm/(2*pi*CL)``; equivalently the model
is the Norton transconductor ``gm = gain/ro`` with output resistance
``ro`` -- the form used by the Gm-C filter of the paper's section 5.

The model is deliberately first-order: the paper notes (Figure 8) that its
behavioural response diverges from the transistor simulation above ~40 MHz
because mirror-node parasitic poles are not modelled, "although these
higher order effects ... could easily be incorporated if required".  We
incorporate them optionally via ``parasitic_pole_hz`` (an internal
unity-gain RC stage), which the Figure-8 extension benchmark exercises.
"""

from __future__ import annotations

import numpy as np

from ..circuit.netlist import Element, _param_batch
from ..errors import NetlistError
from ..units import from_db20

__all__ = ["BehavioralOTA", "ota_transfer_function"]


class BehavioralOTA(Element):
    """Table-model-driven OTA macromodel as an MNA element.

    Parameters
    ----------
    out, inp, inn:
        Output, non-inverting and inverting input nodes.  Inputs are
        ideal (no input current).
    gain:
        Open-circuit voltage gain, *linear* (use
        :func:`repro.units.from_db20` to convert the table's dB value,
        exactly like the Verilog-A ``pow(10, gain_prop/20)``).
    ro:
        Output resistance [ohm].
    parasitic_pole_hz:
        Optional second pole frequency modelling the mirror-node
        parasitics (``None`` reproduces the paper's first-order module).

    All parameters accept batch arrays.
    """

    def __init__(self, name: str, out: str, inp: str, inn: str, *,
                 gain, ro, parasitic_pole_hz=None) -> None:
        super().__init__(name, (out, inp, inn))
        self.gain = gain
        self.ro = ro
        self.parasitic_pole_hz = parasitic_pole_hz
        if np.any(np.asarray(ro, dtype=float) <= 0):
            raise NetlistError(f"behavioural OTA {name!r}: ro must be positive")
        if parasitic_pole_hz is not None and np.any(
                np.asarray(parasitic_pole_hz, dtype=float) <= 0):
            raise NetlistError(
                f"behavioural OTA {name!r}: parasitic pole must be positive")

    def aux_count(self) -> int:
        # Output branch current, plus the internal pole state when present.
        return 1 if self.parasitic_pole_hz is None else 2

    def lint_branches(self):
        """Topology-lint classification (see :mod:`repro.lint.graph`).

        The output stage is a Thevenin source, so it pins the output
        voltage (DC-conducting); the inputs are ideal sense terminals.
        Unity-feedback wiring (output tied to an input) is a legitimate
        configuration, so tied pairs produce no branch at all.
        """
        out, inp, inn = self.nodes
        return [(out, ref, "resistive") for ref in (inp, inn) if ref != out]

    def batch_size(self) -> int:
        extras = () if self.parasitic_pole_hz is None else (self.parasitic_pole_hz,)
        return _param_batch(self.gain, self.ro, *extras)

    def stamp(self, ctx) -> None:
        out, inp, inn = self._node_idx
        gain = np.asarray(self.gain, dtype=float)
        ro = np.asarray(self.ro, dtype=float)

        if self.parasitic_pole_hz is None:
            (k,) = self._aux_idx
            # KCL at the output: i_k is the current flowing from the node
            # *into* the element (same convention as VoltageSource), so
            # the current delivered to the load is -i_k.
            ctx.add_g(out, k, 1.0)
            # Branch equation (Thevenin): V(out) = gain*vd - ro*i_delivered
            #                                    = gain*vd + ro*i_k,
            # stamped as V(out) - gain*(V(inp)-V(inn)) - ro*i_k = 0.
            ctx.add_g(k, out, 1.0)
            ctx.add_g(k, inp, -gain)
            ctx.add_g(k, inn, gain)
            ctx.add_g(k, k, -ro)
            return

        k, x = self._aux_idx  # x: internal pole-node voltage (aux unknown)
        pole = np.asarray(self.parasitic_pole_hz, dtype=float)
        tau = 1.0 / (2.0 * np.pi * pole)
        # Internal stage: x + tau*dx/dt = gain*(V(inp)-V(inn)).
        ctx.add_g(x, x, 1.0)
        ctx.add_g(x, inp, -gain)
        ctx.add_g(x, inn, gain)
        ctx.add_c(x, x, tau)
        # Output stage: V(out) = x + ro*i_k (i_k flows into the element).
        ctx.add_g(out, k, 1.0)
        ctx.add_g(k, out, 1.0)
        ctx.add_g(k, x, -1.0)
        ctx.add_g(k, k, -ro)

    @property
    def gm(self) -> np.ndarray:
        """Equivalent Norton transconductance ``gain / ro``."""
        return np.asarray(self.gain, dtype=float) / np.asarray(self.ro,
                                                               dtype=float)

    @classmethod
    def from_table(cls, name: str, out: str, inp: str, inn: str, *,
                   gain_db, ro) -> "BehavioralOTA":
        """Construct from a dB gain (the table-model output unit)."""
        gain = from_db20(np.asarray(gain_db, dtype=float))
        return cls(name, out, inp, inn, gain=gain, ro=ro)


def ota_transfer_function(freqs, *, gain_db, ro, cl,
                          parasitic_pole_hz=None) -> np.ndarray:
    """Closed-form open-loop response of the macromodel with a capacitive
    load: ``H(f) = A / ((1 + j f/f_p1) (1 + j f/f_p2))`` where
    ``f_p1 = 1/(2*pi*ro*cl)``.

    Shapes broadcast: scalar parameters give ``(F,)``, batch parameters
    ``(B, F)``.  Used by the Figure-8 benchmark to compare the behavioural
    model against the transistor-level AC sweep without building a
    circuit.
    """
    freqs = np.asarray(freqs, dtype=float)
    gain = from_db20(np.asarray(gain_db, dtype=float))[..., None]
    ro = np.asarray(ro, dtype=float)[..., None]
    cl = np.asarray(cl, dtype=float)[..., None]
    f_p1 = 1.0 / (2.0 * np.pi * ro * cl)
    response = gain / (1.0 + 1j * freqs / f_p1)
    if parasitic_pole_hz is not None:
        f_p2 = np.asarray(parasitic_pole_hz, dtype=float)[..., None]
        response = response / (1.0 + 1j * freqs / f_p2)
    return response
