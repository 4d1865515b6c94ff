"""Circuit representation: netlists, elements, devices, parser."""

from .elements import (CCCS, CCVS, VCCS, VCVS, Capacitor, CurrentSource, Diode,
                       Inductor, Resistor, VoltageSource)
from .mosfet import Mosfet, MOSModel
from .netlist import Circuit, Element, is_ground

__all__ = [
    "Circuit", "Element", "is_ground",
    "Resistor", "Capacitor", "Inductor",
    "VoltageSource", "CurrentSource",
    "VCVS", "VCCS", "CCCS", "CCVS",
    "Diode",
    "MOSModel", "Mosfet",
]
