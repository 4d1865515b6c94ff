"""Per-device stamping oracle for the compiled device banks.

Stamps the nonlinear devices one after another through ``add_g`` /
``add_rhs`` / ``add_c`` calls on a :class:`StampContext`, the way the
assembler built its systems before the devices were compiled into
banks.  The device math comes from the single-device entry points
(``Mosfet.evaluate``/``capacitances``, ``Diode.op_info``), so comparing
against this oracle checks the banks' vectorisation, lane blocks, lane
subsets and round-ordered scatter -- not the device equations.
"""

import copy

import numpy as np

from repro.analysis.mna import StampContext
from repro.circuit import Diode, Mosfet

#: ``(gate-side, other)`` terminal pairs of the five MOSFET capacitances.
_CAP_PAIRS = (("g", "s", "cgs"), ("g", "d", "cgd"), ("g", "b", "cgb"),
              ("d", "b", "cdb"), ("s", "b", "csb"))


def take_lanes(device, lanes):
    """A copy of ``device`` holding the per-lane parameters of ``lanes``."""
    if not isinstance(device, Mosfet):
        return device
    view = copy.copy(device)
    for name in ("w", "l", "delta_vto", "beta_scale"):
        value = getattr(device, name)
        if np.ndim(value) == 1 and np.shape(value)[0] > 1:
            setattr(view, name, np.asarray(value)[lanes])
    return view


def _context(G, rhs=None, C=None):
    ctx = StampContext(G.shape[-1], G.shape[0])
    ctx.G = G
    if rhs is not None:
        ctx.rhs = rhs
    if C is not None:
        ctx.C = C
    return ctx


def _stamp_mosfet_conductances(device, ctx, gm, gds, gmb):
    d, g, s, b = device._node_idx
    gsum = gm + gds + gmb
    ctx.add_g(d, g, gm)
    ctx.add_g(d, d, gds)
    ctx.add_g(d, b, gmb)
    ctx.add_g(d, s, -gsum)
    ctx.add_g(s, g, -gm)
    ctx.add_g(s, d, -gds)
    ctx.add_g(s, b, -gmb)
    ctx.add_g(s, s, gsum)


def _diode_point(device, voltages):
    info = device.op_info(voltages)
    return info["vd"], info["id"], info["gd"]


def _stamp_diode_conductance(device, ctx, conductance):
    a, b = device._node_idx
    ctx.add_g(a, a, conductance)
    ctx.add_g(b, b, conductance)
    ctx.add_g(a, b, -conductance)
    ctx.add_g(b, a, -conductance)


def oracle_load(device, voltages, ctx):
    """Stamp one device's Newton companion model at ``voltages``."""
    if isinstance(device, Mosfet):
        vgs, vds, vbs = device._terminal_voltages(voltages)
        op = device.evaluate(vgs, vds, vbs)
        _stamp_mosfet_conductances(device, ctx, op.gm, op.gds, op.gmb)
        i_eq = op.ids - op.gm * vgs - op.gds * vds - op.gmb * vbs
        d, _, s, _ = device._node_idx
    elif isinstance(device, Diode):
        vd, current, conductance = _diode_point(device, voltages)
        _stamp_diode_conductance(device, ctx, conductance)
        i_eq = current - conductance * vd
        d, s = device._node_idx
    else:
        raise TypeError(f"no oracle for {type(device).__name__}")
    ctx.add_rhs(d, -i_eq)
    ctx.add_rhs(s, i_eq)


def oracle_stamp_ac(device, op, ctx):
    """Stamp one device's small-signal conductances and capacitances."""
    if isinstance(device, Mosfet):
        vgs, vds, vbs = device._terminal_voltages(op)
        point = device.evaluate(vgs, vds, vbs)
        _stamp_mosfet_conductances(device, ctx, point.gm, point.gds,
                                   point.gmb)
        caps = device.capacitances(vgs, vds, vbs)
        index = dict(zip("dgsb", device._node_idx))
        for a, b, key in _CAP_PAIRS:
            na, nb, c = index[a], index[b], caps[key]
            ctx.add_c(na, na, c)
            ctx.add_c(nb, nb, c)
            ctx.add_c(na, nb, -c)
            ctx.add_c(nb, na, -c)
    elif isinstance(device, Diode):
        _, _, conductance = _diode_point(device, op)
        _stamp_diode_conductance(device, ctx, conductance)
        if device.cj0:
            a, b = device._node_idx
            ctx.add_c(a, a, device.cj0)
            ctx.add_c(b, b, device.cj0)
            ctx.add_c(a, b, -device.cj0)
            ctx.add_c(b, a, -device.cj0)
    else:
        raise TypeError(f"no oracle for {type(device).__name__}")


def oracle_newton_system(assembler, voltages, *, gmin=0.0, source_scale=1.0,
                         lanes=None):
    """:meth:`Assembler.newton_system`, stamped device by device."""
    lin = assembler.linear()
    devices = assembler.circuit.nonlinear_elements()
    if lanes is None:
        G, rhs = lin.G.copy(), lin.rhs * source_scale
    else:
        G, rhs = lin.G[lanes], lin.rhs[lanes] * source_scale
        devices = [take_lanes(device, lanes) for device in devices]
    ctx = _context(G, rhs=rhs)
    for device in devices:
        oracle_load(device, voltages, ctx)
    if gmin:
        idx = np.arange(assembler.topology.n_nodes)
        G[:, idx, idx] += gmin
    return G, rhs


def oracle_ac_system(assembler, op):
    """``(G, C)`` of :meth:`Assembler.ac_system`, stamped device by device."""
    lin = assembler.linear()
    ctx = _context(lin.G.copy(), C=lin.C.copy())
    for device in assembler.circuit.nonlinear_elements():
        oracle_stamp_ac(device, op, ctx)
    return ctx.G, ctx.C
