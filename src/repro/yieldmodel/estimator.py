"""Monte-Carlo yield estimation (the paper's verification step).

The paper verifies its guard-banded designs with 500-sample Monte Carlo
runs that "confirmed a yield of 100 %".  This module computes the yield
estimate properly: the pass fraction together with a Wilson score
confidence interval, because "500/500 passed" only bounds the true yield
from below (at 95 % confidence, 500/500 means yield >= 99.26 %).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..measure.specs import SpecSet

__all__ = ["z_value", "wilson_interval", "normal_interval", "YieldEstimate",
           "estimate_yield", "estimate_yield_streaming"]


def z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for a confidence level.

    >>> round(z_value(0.95), 3)
    1.96
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return math.sqrt(2.0) * _erfinv(confidence)


def normal_interval(estimate: float, std_error: float,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Normal-approximation confidence interval clipped to ``[0, 1]``.

    Used for estimators that are weighted means rather than binomial
    counts (e.g. importance-sampled yield, where the Wilson interval does
    not apply).
    """
    half = z_value(confidence) * std_error
    return max(0.0, estimate - half), min(1.0, estimate + half)


def wilson_interval(passed: int, total: int,
                    confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at the boundaries (0 or 100 % observed yield), unlike the
    normal approximation.

    >>> lo, hi = wilson_interval(500, 500)
    >>> 0.99 < lo < 1.0 and hi == 1.0
    True
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= passed <= total:
        raise ValueError("passed must lie in [0, total]")
    # Two-sided z for the requested confidence (0.95 -> 1.95996...).
    z = z_value(confidence)
    p_hat = passed / total
    denom = 1.0 + z * z / total
    centre = (p_hat + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(
        p_hat * (1 - p_hat) / total + z * z / (4 * total * total))
    return max(0.0, centre - half), min(1.0, centre + half)


def _erfinv(x: float) -> float:
    """Inverse error function (scipy-free, Newton-refined Winitzki seed)."""
    if not -1.0 < x < 1.0:
        raise ValueError("erfinv argument must be in (-1, 1)")
    # Winitzki's approximation as the seed...
    a = 0.147
    ln_term = math.log(1.0 - x * x)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    value = math.copysign(
        math.sqrt(math.sqrt(first * first - ln_term / a) - first), x)
    # ...then two Newton steps on erf(value) - x = 0 for full precision.
    for _ in range(2):
        error = math.erf(value) - x
        value -= error / (2.0 / math.sqrt(math.pi) * math.exp(-value * value))
    return value


@dataclass
class YieldEstimate:
    """A Monte-Carlo yield measurement.

    Attributes
    ----------
    passed, total:
        Raw pass count over the sample population.
    per_spec_pass:
        Pass counts for each individual spec (diagnoses *which*
        requirement limits yield).
    confidence:
        Confidence level of the Wilson interval.
    """

    passed: int
    total: int
    per_spec_pass: dict[str, int] = field(default_factory=dict)
    confidence: float = 0.95

    @property
    def fraction(self) -> float:
        """Point estimate of the yield."""
        return self.passed / self.total

    @property
    def percent(self) -> float:
        """Point estimate of the yield in percent."""
        return 100.0 * self.fraction

    @property
    def interval(self) -> tuple[float, float]:
        """Wilson confidence interval on the true yield."""
        return wilson_interval(self.passed, self.total, self.confidence)

    def describe(self) -> str:
        """Multi-line report: overall yield, CI, per-spec pass counts."""
        lo, hi = self.interval
        parts = [f"yield {self.passed}/{self.total} = {self.percent:.2f}% "
                 f"(Wilson {self.confidence:.0%} CI: "
                 f"[{100 * lo:.2f}%, {100 * hi:.2f}%])"]
        for name, count in self.per_spec_pass.items():
            parts.append(f"  {name}: {count}/{self.total}")
        return "\n".join(parts)


def estimate_yield(performance: dict[str, np.ndarray],
                   specs: SpecSet) -> YieldEstimate:
    """Estimate yield of a Monte-Carlo performance population.

    Parameters
    ----------
    performance:
        Mapping performance name -> shape-``(S,)`` sample array (one entry
        per Monte-Carlo die).
    specs:
        The specification set (all specs must pass for a die to count).
    """
    mask = specs.pass_mask(performance)
    per_spec = {
        spec.name: int(np.count_nonzero(
            spec.satisfied(np.asarray(performance[spec.name]))))
        for spec in specs
    }
    return YieldEstimate(
        passed=int(np.count_nonzero(mask)),
        total=int(mask.size),
        per_spec_pass=per_spec,
    )


def estimate_yield_streaming(evaluator, pdk, specs: SpecSet,
                             config=None, *, adaptive=None,
                             checkpoint=None,
                             stage: str = "mc-single", progress=None):
    """Streaming (optionally adaptive) Monte-Carlo yield estimation.

    Drives :func:`repro.mc.streaming.monte_carlo_streaming` with a
    :class:`~repro.mc.streaming.YieldCounter` and converts the streaming
    pass counts into the same :class:`YieldEstimate` that
    :func:`estimate_yield` builds from a materialised population --
    without ever holding that population in memory.  With an
    :class:`~repro.mc.streaming.AdaptiveStop` the run terminates as soon
    as the Wilson interval is narrower than the requested width, which
    is how a verification reaches a stated precision with the fewest
    simulated lanes.

    Parameters
    ----------
    evaluator:
        Callable ``(ProcessSample) -> dict[name, (S,) array]`` (the
        :func:`repro.mc.engine.monte_carlo` contract).
    specs:
        The specification set (all specs must pass for a die to count).
    config:
        :class:`repro.mc.engine.MCConfig`; ``n_samples`` is the exact
        count, or the cap when ``adaptive`` is given.
    adaptive, checkpoint, stage, progress:
        Forwarded to :func:`monte_carlo_streaming` (adaptive stopping,
        checkpoint/resume, stream stage key).  The estimate's Wilson
        interval is at the streaming run's confidence, the one an
        adaptive rule stops on.

    Returns
    -------
    ``(estimate, streaming)`` -- the :class:`YieldEstimate` and the full
    :class:`~repro.mc.streaming.StreamingResult` (per-performance
    accumulators, stop state, chunk cursor).
    """
    # Runtime import: repro.mc must stay importable without repro.yieldmodel,
    # and this keeps the one-way module-level dependency explicit.
    from ..mc.streaming import monte_carlo_streaming
    with telemetry.span("yield.streaming", stage=stage) as estimate_span:
        streaming = monte_carlo_streaming(
            evaluator, pdk, config, specs=specs, adaptive=adaptive,
            checkpoint=checkpoint, stage=stage, progress=progress)
        simulated = streaming.samples_done - streaming.samples_resumed
        telemetry.counter_add("estimator.simulations", simulated)
        estimate_span.set(simulations=simulated,
                          samples=streaming.samples_done)
    counter = streaming.counter
    estimate = YieldEstimate(
        passed=counter.passed,
        total=counter.total,
        per_spec_pass=dict(counter.per_spec),
        confidence=streaming.confidence,
    )
    return estimate, streaming
