"""Monte-Carlo machinery: seeded streams, engines, statistics."""

from .engine import (MCConfig, evaluate_sigma_batch, monte_carlo,
                     monte_carlo_points)
from .sampler import child_streams, latin_hypercube_normal, stream
from .statistics import PopulationSummary, relative_spread_pct, summarize
from .streaming import (AdaptiveStop, QuantileSketch, StreamingAccumulator,
                        StreamingMoments, StreamingResult, YieldCounter,
                        monte_carlo_streaming)

__all__ = [
    "MCConfig", "monte_carlo", "monte_carlo_points", "evaluate_sigma_batch",
    "child_streams", "latin_hypercube_normal", "stream",
    "PopulationSummary", "relative_spread_pct", "summarize",
    "AdaptiveStop", "QuantileSketch",
    "StreamingAccumulator", "StreamingMoments", "StreamingResult",
    "YieldCounter", "monte_carlo_streaming",
]
