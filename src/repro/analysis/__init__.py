"""Circuit analyses: DC operating point, AC sweeps, noise."""

from .ac import ACResult, ac_analysis, log_frequencies
from .dc import OperatingPoint, dc_operating_point
from .mna import Assembler, solve_batched
from .noise import NoiseResult, noise_analysis

__all__ = [
    "ACResult", "ac_analysis", "log_frequencies",
    "OperatingPoint", "dc_operating_point",
    "Assembler", "solve_batched",
    "NoiseResult", "noise_analysis",
]
