"""The paper's combined performance + variation yield model."""

from .cornercheck import CornerMCCheck, compare_corners_to_mc
from .estimator import (YieldEstimate, estimate_yield,
                        estimate_yield_streaming, normal_interval,
                        wilson_interval, z_value)
from .importance import (ImportanceSamplingConfig, ImportanceSamplingEstimate,
                         estimate_yield_importance,
                         estimate_yield_importance_stacked)
from .rare import (RareEventConfig, RareEventResult, RareLevel,
                   direct_mc_samples_for_halfwidth, equivalent_sigma,
                   estimate_yield_rare)
from .targeting import CombinedYieldModel, GuardBandedTarget, YieldTargetedDesign
from .variation import (DEFAULT_K_SIGMA, smooth_along_front,
                        variation_columns, variation_percent)

__all__ = [
    "CornerMCCheck", "compare_corners_to_mc",
    "YieldEstimate", "estimate_yield", "estimate_yield_streaming",
    "wilson_interval", "normal_interval", "z_value",
    "ImportanceSamplingConfig", "ImportanceSamplingEstimate",
    "estimate_yield_importance", "estimate_yield_importance_stacked",
    "RareEventConfig", "RareEventResult", "RareLevel",
    "estimate_yield_rare", "equivalent_sigma",
    "direct_mc_samples_for_halfwidth",
    "CombinedYieldModel", "GuardBandedTarget", "YieldTargetedDesign",
    "DEFAULT_K_SIGMA", "smooth_along_front", "variation_columns",
    "variation_percent",
]
