"""An AMS-0.35-um-class process kit ("C35").

The paper simulates with "foundry level BSim3v3 transistor models from a
standard 0.35 um AMS process (C35B4)".  This module provides our
equivalent: nominal level-1/EKV model cards whose headline figures (VT,
KP, tox-derived Cox, junction capacitances, Pelgrom coefficients) match
published AMS C35 data, plus the standard digital corner set:

========  =======================  ==============================
corner    name                     device shifts
========  =======================  ==============================
``tm``    typical mean             none
``wp``    worst power (fast/fast)  -3 sigma VT, +3 sigma KP (both)
``ws``    worst speed (slow/slow)  +3 sigma VT, -3 sigma KP (both)
``wo``    worst one (fast N/slow P)
``wz``    worst zero (slow N/fast P)
========  =======================  ==============================

The statistical spreads are chosen so the corner shifts are the 3-sigma
points of the global model, keeping corners and Monte Carlo consistent.
"""

from __future__ import annotations

from ..circuit.mosfet import MOSModel
from .mismatch import MismatchModel
from .pdk import CornerDef, GlobalVariation, ProcessKit

__all__ = ["C35", "make_c35"]

# Global (inter-die) 1-sigma spreads.
_SIGMA_VTO_N = 0.020   # V
_SIGMA_VTO_P = 0.025   # V
_SIGMA_KP = 0.022      # relative
_SIGMA_CAP = 0.040     # relative (poly capacitor)


def make_c35() -> ProcessKit:
    """Build a fresh C35 process kit (use the shared :data:`C35` normally)."""
    nmos = MOSModel(
        name="nmos", polarity="n",
        vto=0.50, kp=170e-6, gamma=0.58, phi=0.70,
        klambda=0.10e-6, ld=0.05e-6,
        cox=4.54e-3, cgso=1.2e-10, cgdo=1.2e-10, cgbo=1.1e-10,
        cj=9.4e-4, cjsw=2.5e-10, pb=0.69, mj=0.34, mjsw=0.23,
        ldiff=0.85e-6, n_sub=1.5)
    pmos = MOSModel(
        name="pmos", polarity="p",
        vto=-0.65, kp=58e-6, gamma=0.40, phi=0.70,
        klambda=0.14e-6, ld=0.05e-6,
        cox=4.54e-3, cgso=8.6e-11, cgdo=8.6e-11, cgbo=1.1e-10,
        cj=1.36e-3, cjsw=3.2e-10, pb=1.02, mj=0.56, mjsw=0.44,
        ldiff=0.85e-6, n_sub=1.6)

    three_sigma_n = 3.0 * _SIGMA_VTO_N
    three_sigma_p = 3.0 * _SIGMA_VTO_P
    kp_fast = 1.0 + 3.0 * _SIGMA_KP
    kp_slow = 1.0 - 3.0 * _SIGMA_KP
    corners = {
        "tm": CornerDef("tm", 0.0, 1.0, 0.0, 1.0),
        "wp": CornerDef("wp", -three_sigma_n, kp_fast, -three_sigma_p,
                        kp_fast),
        "ws": CornerDef("ws", +three_sigma_n, kp_slow, +three_sigma_p,
                        kp_slow),
        "wo": CornerDef("wo", -three_sigma_n, kp_fast, +three_sigma_p,
                        kp_slow),
        "wz": CornerDef("wz", +three_sigma_n, kp_slow, -three_sigma_p,
                        kp_fast),
    }

    return ProcessKit(
        name="c35",
        nmos=nmos,
        pmos=pmos,
        supply=3.3,
        global_variation=GlobalVariation(
            sigma_vto_n=_SIGMA_VTO_N, sigma_kp_n=_SIGMA_KP,
            sigma_vto_p=_SIGMA_VTO_P, sigma_kp_p=_SIGMA_KP,
            sigma_cap=_SIGMA_CAP),
        mismatch=MismatchModel(
            avt_n=7.0e-9, abeta_n=0.015e-6,
            avt_p=10.0e-9, abeta_p=0.018e-6),
        corners=corners)


#: The shared C35 process kit instance used throughout the library.
C35 = make_c35()
