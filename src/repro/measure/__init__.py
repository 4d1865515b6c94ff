"""Performance measurement: AC measures and specification objects."""

from .acmeas import (crossing_frequency, dc_gain_db, f3db, passband_ripple_db,
                     phase_margin, stopband_attenuation_db,
                     unity_gain_frequency, value_at_frequency)
from .specs import Spec, SpecSet

__all__ = [
    "crossing_frequency", "dc_gain_db", "f3db", "passband_ripple_db",
    "phase_margin", "stopband_attenuation_db",
    "unity_gain_frequency", "value_at_frequency",
    "Spec", "SpecSet",
]
